open Gmt_ir
module Imap = Map.Make (Int)

type aval = { itv : Itv.t; sym : (int * int) option; uninit : bool }

(* [cmp] remembers that a register currently holds the 0/1 result of
   comparing two other registers' current values; [Dom.assume] uses it to
   refine the operands along branch edges. Invalidated whenever any
   involved register is redefined. *)
type slot = { v : aval; cmp : (Instr.binop * Reg.t * Reg.t) option }

type env = Bot | Env of { regs : slot array; qbal : Itv.t Imap.t }

let env_is_bottom = function Bot -> true | Env _ -> false
let top_val = { itv = Itv.top; sym = None; uninit = false }

let reg env r =
  match env with
  | Bot -> { itv = Itv.bot; sym = None; uninit = false }
  | Env { regs; _ } -> regs.(Reg.to_int r).v

let addr env ~base ~off =
  let v = reg env base in
  let itv = Itv.add_const off v.itv in
  let sym = Option.map (fun (b, d) -> (b, d + off)) v.sym in
  (itv, sym)

let queue_imbalance = function
  | Bot -> []
  | Env { qbal; _ } ->
    Imap.fold
      (fun q itv acc ->
        if Itv.equal itv (Itv.const 0) then acc else (q, itv) :: acc)
      qbal []
    |> List.rev

module Dom = struct
  type t = env

  let bottom = Bot
  let is_bottom = env_is_bottom

  let aval_equal a b =
    Itv.equal a.itv b.itv && a.sym = b.sym && a.uninit = b.uninit

  let slot_equal a b = aval_equal a.v b.v && a.cmp = b.cmp

  let qbal_equal =
    Imap.equal Itv.equal

  (* Normalize: a queue whose balance is exactly 0 is absent. *)
  let qset q itv m =
    if Itv.equal itv (Itv.const 0) then Imap.remove q m else Imap.add q itv m

  let qmerge f a b =
    Imap.merge
      (fun _ x y ->
        let x = Option.value x ~default:(Itv.const 0)
        and y = Option.value y ~default:(Itv.const 0) in
        let r = f x y in
        if Itv.equal r (Itv.const 0) then None else Some r)
      a b

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Env a, Env b ->
      Array.length a.regs = Array.length b.regs
      && Array.for_all2 slot_equal a.regs b.regs
      && qbal_equal a.qbal b.qbal
    | _ -> false

  let merge_val j a b =
    {
      itv = j a.itv b.itv;
      sym = (if a.sym = b.sym then a.sym else None);
      uninit = a.uninit || b.uninit;
    }

  let merge_slot j a b =
    { v = merge_val j a.v b.v; cmp = (if a.cmp = b.cmp then a.cmp else None) }

  let combine j qf a b =
    match (a, b) with
    | Bot, t | t, Bot -> t
    | Env a, Env b ->
      Env
        {
          regs = Array.map2 (merge_slot j) a.regs b.regs;
          qbal = qmerge qf a.qbal b.qbal;
        }

  let join = combine Itv.join Itv.join
  let widen = combine Itv.widen Itv.widen

  let narrow a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Env ea, Env eb ->
      Env
        {
          regs =
            Array.map2
              (fun sa sb ->
                { sa with v = { sa.v with itv = Itv.narrow sa.v.itv sb.v.itv } })
              ea.regs eb.regs;
          qbal = qmerge Itv.narrow ea.qbal eb.qbal;
        }

  (* Redefining [d] invalidates every remembered comparison involving it. *)
  let invalidate_cmp regs d =
    Array.iteri
      (fun i s ->
        match s.cmp with
        | Some (_, a, b) when Reg.equal a d || Reg.equal b d ->
          regs.(i) <- { s with cmp = None }
        | _ -> ())
      regs

  let def regs d ?cmp v =
    (* A comparison fact naming the defined register itself would be
       self-invalidating — drop it. *)
    let cmp =
      match cmp with
      | Some (_, a, b) when Reg.equal a d || Reg.equal b d -> None
      | c -> c
    in
    let regs = Array.copy regs in
    invalidate_cmp regs d;
    regs.(Reg.to_int d) <- { v; cmp };
    regs

  let use regs r = regs.(Reg.to_int r).v

  (* Affine-symbol propagation through Add/Sub with a constant side.
     Deltas may wrap; congruence modulo any power of two survives. *)
  let affine op regs a b =
    let va = use regs a and vb = use regs b in
    match (op : Instr.binop) with
    | Add -> (
      match (Itv.singleton vb.itv, va.sym) with
      | Some k, Some (base, d) -> Some (base, d + k)
      | _ -> (
        match (Itv.singleton va.itv, vb.sym) with
        | Some k, Some (base, d) -> Some (base, d + k)
        | _ -> None))
    | Sub -> (
      match (Itv.singleton vb.itv, va.sym) with
      | Some k, Some (base, d) -> Some (base, d - k)
      | _ -> None)
    | _ -> None

  let transfer (i : Instr.t) st =
    match st with
    | Bot -> Bot
    | Env { regs; qbal } -> (
      match i.op with
      | Const (d, k) ->
        Env
          {
            regs =
              def regs d { itv = Itv.const k; sym = Some (i.id, 0); uninit = false };
            qbal;
          }
      | Copy (d, s) ->
        let v = use regs s in
        let sym = match v.sym with Some _ as s -> s | None -> Some (i.id, 0) in
        Env
          {
            regs = def regs d ?cmp:regs.(Reg.to_int s).cmp { v with sym };
            qbal;
          }
      | Unop (op, d, s) ->
        let v = use regs s in
        Env
          {
            regs =
              def regs d
                { itv = Itv.unop op v.itv; sym = Some (i.id, 0); uninit = false };
            qbal;
          }
      | Binop (op, d, a, b) ->
        let va = use regs a and vb = use regs b in
        let sym =
          match affine op regs a b with
          | Some _ as s -> s
          | None -> Some (i.id, 0)
        in
        let cmp =
          match op with
          | Lt | Le | Eq | Ne | Gt | Ge -> Some (op, a, b)
          | _ -> None
        in
        Env
          {
            regs =
              def regs d ?cmp
                { itv = Itv.binop op va.itv vb.itv; sym; uninit = false };
            qbal;
          }
      | Load (_, d, _, _) ->
        Env
          {
            regs =
              def regs d { itv = Itv.top; sym = Some (i.id, 0); uninit = false };
            qbal;
          }
      | Consume (d, q) ->
        Env
          {
            regs =
              def regs d { itv = Itv.top; sym = Some (i.id, 0); uninit = false };
            qbal =
              qset q
                (Itv.add_const (-1)
                   (Option.value (Imap.find_opt q qbal) ~default:(Itv.const 0)))
                qbal;
          }
      | Produce (q, _) | Produce_sync q ->
        Env
          {
            regs;
            qbal =
              qset q
                (Itv.add_const 1
                   (Option.value (Imap.find_opt q qbal) ~default:(Itv.const 0)))
                qbal;
          }
      | Consume_sync q ->
        Env
          {
            regs;
            qbal =
              qset q
                (Itv.add_const (-1)
                   (Option.value (Imap.find_opt q qbal) ~default:(Itv.const 0)))
                qbal;
          }
      | Store _ | Jump _ | Branch _ | Return | Nop -> st)

  (* [remove_point k t]: best interval refinement of "value <> k". *)
  let remove_point k t = Itv.add_const k (Itv.remove_zero (Itv.add_const (-k) t))

  let bound_pred = function
    | Itv.Fin x when x > min_int -> Itv.Fin (x - 1)
    | Itv.Fin _ -> Itv.Ninf
    | b -> b

  let bound_succ = function
    | Itv.Fin x when x < max_int -> Itv.Fin (x + 1)
    | Itv.Fin _ -> Itv.Pinf
    | b -> b

  (* Refine the operand intervals of comparison [op a b] known to have
     result [truth]. Exact concrete comparisons over ints — no wrap
     subtleties. *)
  let refine_cmp op ~truth ia ib =
    (* [a < b] caps [a] by the {e largest} value [b] can take (and floors
       [b] by the smallest [a] can take); [le] likewise without the
       strict offset. *)
    let lt a b = (Itv.meet a (Itv.make Itv.Ninf (bound_pred (Itv.hi b))),
                  Itv.meet b (Itv.make (bound_succ (Itv.lo a)) Itv.Pinf))
    and le a b = (Itv.meet a (Itv.make Itv.Ninf (Itv.hi b)),
                  Itv.meet b (Itv.make (Itv.lo a) Itv.Pinf)) in
    let swap (x, y) = (y, x) in
    match ((op : Instr.binop), truth) with
    | Lt, true | Ge, false -> lt ia ib
    | Le, true | Gt, false -> le ia ib
    | Gt, true | Le, false -> swap (lt ib ia)
    | Ge, true | Lt, false -> swap (le ib ia)
    | Eq, true | Ne, false ->
      let m = Itv.meet ia ib in
      (m, m)
    | Ne, true | Eq, false -> (
      ( (match Itv.singleton ib with Some k -> remove_point k ia | None -> ia),
        match Itv.singleton ia with Some k -> remove_point k ib | None -> ib ))
    | _ -> (ia, ib)

  let assume (term : Instr.t) slot st =
    match (term.op, st) with
    | Branch (c, _, _), Env { regs; qbal } ->
      let taken = slot = 0 in
      let sc = regs.(Reg.to_int c) in
      let citv =
        if taken then Itv.remove_zero sc.v.itv
        else Itv.meet sc.v.itv (Itv.const 0)
      in
      if Itv.is_bot citv then Bot
      else begin
        let regs = Array.copy regs in
        regs.(Reg.to_int c) <- { sc with v = { sc.v with itv = citv } };
        (match sc.cmp with
        | Some (op, a, b) when not (Reg.equal a b) ->
          let sa = regs.(Reg.to_int a) and sb = regs.(Reg.to_int b) in
          let ia, ib = refine_cmp op ~truth:taken sa.v.itv sb.v.itv in
          regs.(Reg.to_int a) <- { sa with v = { sa.v with itv = ia } };
          regs.(Reg.to_int b) <- { sb with v = { sb.v with itv = ib } }
        | _ -> ());
        if
          Array.exists
            (fun s -> Itv.is_bot s.v.itv && not s.v.uninit)
            regs
        then Bot
        else Env { regs; qbal }
      end
    | _ -> st
end

module Engine = struct
  include Absint.Make (Dom)
end

let analyze (f : Func.t) =
  let regs =
    Array.init f.Func.n_regs (fun _ ->
        { v = { top_val with uninit = true }; cmp = None })
  in
  List.iter
    (fun r ->
      regs.(Reg.to_int r) <-
        {
          v = { itv = Itv.top; sym = Some (Reaching.entry_def r, 0); uninit = false };
          cmp = None;
        })
    f.Func.live_in;
  let entry = Env { regs; qbal = Imap.empty } in
  Engine.solve ~entry f
