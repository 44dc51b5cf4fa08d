open Gmt_ir

let latency (i : Instr.t) =
  match i.op with
  | Binop (b, _, _, _) -> (
    match b with
    | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> 4
    | Mul -> 3
    | Div | Rem -> 8
    | _ -> 1)
  | Unop (u, _, _) -> ( match u with Fneg | Fsqrt -> 4 | _ -> 1)
  | Load _ -> 2
  | Store _ -> 1
  | Const _ | Copy _ -> 1
  | Jump _ | Branch _ | Return -> 1
  | Produce _ | Consume _ | Produce_sync _ | Consume_sync _ -> 1
  | Nop -> 0

let dyn_cost profile cfg (i : Instr.t) =
  let block, _ = Cfg.position cfg i.id in
  latency i * max 1 (Gmt_analysis.Profile.block profile block)
