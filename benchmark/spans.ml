(* Per-layer attribution for traced runs, and the Chrome trace export.

   The benchmark takes its own spans around the public entry points it
   calls (Velocity.compile, verify_compiled, measure, Client.request,
   ...) and captures, as their children, the spans the program already
   records ({!Gmt_obs.Obs.collect}) — including the daemon's per-stage
   spans, which a traced request ships back in its reply. Nothing is
   added inside the program.

   The daemon's span clocks do not survive the reply: the wire prints a
   number with 6 significant digits, so an epoch timestamp in µs lands
   on a grid of hours, while durations keep their precision. Each op's
   span tree is therefore rebuilt from what does survive: the order in
   which the spans finished, which [collect] and the reply both keep,
   their durations, and which layer calls which. A span's self time is
   its duration minus its children's and goes to its layer; a span of
   no known layer belongs to its parent's. Self times of one op sum to
   its wall time. *)

module Obs = Gmt_obs.Obs

(* Self time outside every layer: the benchmark's own glue. *)
let unattributed = "unattributed"

(* The layer of every span the program and the benchmark record. *)
let layer_of = function
  | "core.compile" | "compile" | "req.compile" | "validate" | "mtcg.plan"
  | "queue.alloc" | "validate.threads" ->
    Some "core.compile"
  | "profile.train" -> Some "machine.profile"
  | "pdg.build" | "pdg.absint" -> Some "pdg.build"
  | "partition" | "gremio.sccs" | "scc.condense" -> Some "sched.partition"
  | "coco.optimize" | "coco.iteration" -> Some "coco.optimize"
  | "mtcg.generate" | "mtcg.thread" -> Some "mtcg.generate"
  | "opt.cleanup" -> Some "opt.cleanup"
  | "verify.mt_interp" -> Some "machine.mt_interp"
  | "verify.run" | "req.verify" | "verify" | "verify.coverage"
  | "verify.protocol" | "verify.race" | "verify.defuse" ->
    Some "verify.run"
  | "core.measure" | "req.simulate" -> Some "core.measure"
  | "machine.oracle" | "oracle.interp" -> Some "machine.oracle"
  | "sim.run" -> Some "machine.sim"
  | "req.decode" -> Some "service.decode"
  | "req.fingerprint" -> Some "service.fingerprint"
  | "req.cache.lookup" -> Some "service.cache_lookup"
  | "req.encode" -> Some "service.encode"
  | "service.rpc" -> Some "service.transport"
  | "bench.cell" -> Some unattributed
  | n when String.starts_with ~prefix:"serve." n -> Some "service.dispatch"
  | _ -> None

(* The layers a layer's spans call into, besides its own. *)
let calls parent child =
  match parent with
  | "unattributed" -> true
  | "service.transport" ->
    List.mem child [ "service.dispatch"; "service.encode" ]
  | "service.dispatch" ->
    List.mem child
      [ "service.decode"; "service.fingerprint"; "service.cache_lookup";
        "core.compile"; "verify.run"; "core.measure" ]
  | "core.compile" ->
    List.mem child
      [ "machine.profile"; "pdg.build"; "sched.partition"; "coco.optimize";
        "mtcg.generate"; "opt.cleanup"; "verify.run" ]
  | "core.measure" ->
    List.mem child [ "machine.oracle"; "machine.mt_interp"; "machine.sim" ]
  | _ -> false

(* Whether a span named [parent] can contain one named [child]. A span of
   no known layer may sit anywhere, but holds only its like. *)
let may_contain parent child =
  match (layer_of parent, layer_of child) with
  | _, None -> true
  | None, Some _ -> false
  | Some p, Some c -> p = c || calls p c

let layers =
  [ "core.compile"; "machine.profile"; "pdg.build"; "sched.partition";
    "coco.optimize"; "mtcg.generate"; "opt.cleanup"; "verify.run";
    "core.measure"; "machine.oracle"; "machine.mt_interp"; "machine.sim";
    "service.decode"; "service.fingerprint"; "service.cache_lookup";
    "service.encode"; "service.dispatch"; "service.transport"; unattributed ]

type node = {
  span : Obs.span;
  id : int;
  mutable parent : int;  (** -1 for a root *)
  mutable kids : node list;  (** in the order they finished *)
  mutable ts_us : float;  (** start; laid out for the daemon's spans *)
  mutable remote : bool;  (** recorded by the daemon, shipped back *)
  req : string;  (** the op (cell label or trace id) the span belongs to *)
  tid : int;  (** client (or pass) track *)
}

(* Ops whose spans go into the written trace; the attribution covers
   every op. Keeps the file a few MB on the fastest workload. *)
let export_cap = 1000

type t = {
  lock : Mutex.t;
  mutable next_id : int;
  self_us : (string, float) Hashtbl.t;
  mutable wall_us : float;  (** summed duration of root spans *)
  mutable ops : int;
  mutable exported : node list;  (** newest first *)
  mutable exported_ops : int;
}

let create () =
  {
    lock = Mutex.create ();
    next_id = 0;
    self_us = Hashtbl.create 32;
    wall_us = 0.;
    ops = 0;
    exported = [];
    exported_ops = 0;
  }

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.

(* Printing rounds durations in their sixth digit; children may sum to
   slightly more than their parent. *)
let slack_us d = 1. +. (1e-4 *. d)

(* Rebuilds the span tree of one op from spans listed in the order they
   finished: each span adopts the most recent unadopted subtrees that
   its layer may contain and its duration can hold. Returns the roots,
   in order. *)
let rebuild t ~req ~tid spans =
  let pending = ref [] in
  List.iter
    (fun (s : Obs.span) ->
      let n =
        { span = s; id = t.next_id; parent = -1; kids = []; ts_us = s.Obs.ts_us;
          remote = false; req; tid }
      in
      t.next_id <- t.next_id + 1;
      let rec adopt room = function
        | c :: rest
          when may_contain s.Obs.name c.span.Obs.name
               && c.span.Obs.dur_us <= room +. slack_us s.Obs.dur_us ->
          c.parent <- n.id;
          n.kids <- c :: n.kids;
          adopt (room -. c.span.Obs.dur_us) rest
        | rest -> rest
      in
      pending := n :: adopt s.Obs.dur_us !pending)
    spans;
  List.rev !pending

(* Attributes a subtree's self times to layers; lays the daemon's spans
   out back to back inside their parent (centred in the client span),
   since their own clocks are lost. Returns the subtree's nodes. *)
let rec attribute t ~layer n =
  let layer = Option.value (layer_of n.span.Obs.name) ~default:layer in
  let kids_us = List.fold_left (fun a c -> a +. c.span.Obs.dur_us) 0. n.kids in
  let self = Float.max 0. (n.span.Obs.dur_us -. kids_us) in
  Hashtbl.replace t.self_us layer (get t.self_us layer +. self);
  let remote_kids = n.remote || n.span.Obs.name = "service.rpc" in
  let at =
    ref (n.ts_us +. if n.remote then 0. else Float.max 0. (self /. 2.))
  in
  n
  :: List.concat_map
       (fun c ->
         if remote_kids then begin
           c.remote <- true;
           c.ts_us <- !at;
           at := !at +. c.span.Obs.dur_us
         end;
         attribute t ~layer c)
       n.kids

(* [add t ~ops ~req ~tid spans] attributes one op's spans, in the order
   they finished ([ops] is how many benchmark ops they cover: 1 for a
   cell or a request, 0 for the oracle run a matrix row shares). *)
let add t ~ops ~req ~tid spans =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let nodes =
    List.concat_map
      (fun root ->
        t.wall_us <- t.wall_us +. root.span.Obs.dur_us;
        attribute t ~layer:unattributed root)
      (rebuild t ~req ~tid spans)
  in
  t.ops <- t.ops + ops;
  if t.exported_ops < export_cap then begin
    t.exported <- List.rev_append nodes t.exported;
    t.exported_ops <- t.exported_ops + max ops 1
  end

let self_us t l = get t.self_us l

(* Share of the traced wall time spent in each layer, in {!layers}
   order; they sum to 1. *)
let shares t =
  List.map
    (fun l ->
      (l ^ "_share", if t.wall_us > 0. then self_us t l /. t.wall_us else 0.))
    layers

let op_ms t = if t.ops > 0 then t.wall_us /. 1e3 /. float_of_int t.ops else nan

(* Chrome [trace_event] JSON, loadable in Perfetto or chrome://tracing:
   the benchmark's spans on pid 1 (one track per client), the daemon's
   on pid 2; every event carries its id, parent id and op id. *)
let write_chrome t path =
  let nodes = List.rev t.exported in
  let t0 = List.fold_left (fun m n -> Float.min m n.ts_us) infinity nodes in
  let esc = Gmt_obs.Json.escape in
  let process (pid, name) =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
       \"args\":{\"name\":%s}}"
      pid (esc name)
  in
  let event n =
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
       \"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\
       \"req\":%s}}"
      (esc n.span.Obs.name) (esc n.span.Obs.cat)
      (n.ts_us -. t0) n.span.Obs.dur_us
      (if n.remote then 2 else 1)
      n.tid n.id n.parent (esc n.req)
  in
  let events =
    List.map process [ (1, "benchmark"); (2, "gmtc serve") ]
    @ List.map event nodes
  in
  Out_channel.with_open_bin path @@ fun oc ->
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  output_string oc (String.concat ",\n" events);
  output_string oc "\n]}\n"
