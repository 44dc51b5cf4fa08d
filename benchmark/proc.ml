(* Process hygiene: the gmtc daemons the service workloads drive, and the
   per-run directory their sockets live in.

   Each daemon runs in its own session (so its own process group) and is
   stopped with SIGTERM to the whole group, then SIGKILL after a
   deadline. [cleanup] runs on every exit path: the workloads call it
   from [Fun.protect], SIGINT/SIGTERM only raise a flag the loops poll
   (so they unwind through the same path), and [at_exit] catches the
   rest. Nothing is written outside [.benchmark/] of the working
   directory. *)

exception Interrupted

let interrupted = Atomic.make false

let check_interrupt () = if Atomic.get interrupted then raise Interrupted

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun _ -> Atomic.set interrupted true) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

let root = ".benchmark"

let ensure_root () =
  try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Socket paths stay relative (and short): a Unix socket path is limited
   to about 100 bytes, and the checkout may sit deep in the tree. *)
let run_dir =
  lazy
    (ensure_root ();
     let d = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     Unix.mkdir d 0o700;
     d)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = {
  name : string;
  pid : int;
  socket : string;
  out : string;  (** the daemon's stdout (startup lines) *)
  log : string;  (** its stderr (telemetry events) *)
}

(* Daemons not yet reaped. Only the main domain touches this. *)
let live : daemon list ref = ref []

let gmtc () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/gmtc.exe"
  in
  if not (Sys.file_exists p) then
    failwith
      (p ^ " not found; build it with: dune build ./bin/gmtc.exe");
  p

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

let tail s =
  let n = String.length s in
  if n <= 2000 then s else String.sub s (n - 2000) 2000

let run_file name ext = Filename.concat (Lazy.force run_dir) (name ^ ext)

(* The Unix socket the daemon [name] listens on. *)
let socket_of name = run_file name ".sock"

(* Fork + setsid + exec. Must run while this process has a single
   domain, which is why every spawn happens during set-up. *)
let spawn ~name args =
  let gmtc = gmtc () in
  let d =
    { name; pid = 0; socket = socket_of name; out = run_file name ".out";
      log = run_file name ".log" }
  in
  let argv =
    Array.of_list (gmtc :: "serve" :: "--socket" :: d.socket :: args)
  in
  let open_w p =
    Unix.openfile p
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  let fd_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let fd_out = open_w d.out and fd_log = open_w d.log in
  let close_all () = List.iter Unix.close [ fd_null; fd_out; fd_log ] in
  match Unix.fork () with
  | 0 -> (
    try
      ignore (Unix.setsid ());
      Unix.dup2 ~cloexec:false fd_null Unix.stdin;
      Unix.dup2 ~cloexec:false fd_out Unix.stdout;
      Unix.dup2 ~cloexec:false fd_log Unix.stderr;
      Unix.execv gmtc argv
    with _ -> Unix._exit 127)
  | pid ->
    close_all ();
    let d = { d with pid } in
    live := d :: !live;
    d

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let forget d = live := List.filter (fun x -> x.pid <> d.pid) !live

(* Whether the daemon has exited (reaping it if so). *)
let exited d =
  match waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ -> forget d; true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> forget d; true

let kill_group d signal =
  try Unix.kill (-d.pid) signal with Unix.Unix_error _ -> ()

let stop_deadline = 5.0

(* SIGTERM to the group, then SIGKILL once [stop_deadline] passes. *)
let terminate d =
  kill_group d Sys.sigterm;
  let deadline = Unix.gettimeofday () +. stop_deadline in
  let rec await () =
    if not (exited d) then
      if Unix.gettimeofday () < deadline then (Unix.sleepf 0.01; await ())
      else begin
        kill_group d Sys.sigkill;
        (try ignore (waitpid [] d.pid) with Unix.Unix_error _ -> ());
        forget d
      end
  in
  await ();
  (* Anything the daemon left in its group. *)
  kill_group d Sys.sigkill

let fail_daemon d what =
  let log = tail (read_file d.log) in
  terminate d;
  failwith (Printf.sprintf "daemon %s %s\n%s" d.name what log)

let ready_timeout = 20.0

(* Waits until the daemon answers a ping, and returns its TCP port when
   it was started with [--listen HOST:0] (read from its startup line). *)
let wait_ready ?(tcp = false) d =
  let deadline = Unix.gettimeofday () +. ready_timeout in
  let rec go () =
    check_interrupt ();
    if exited d then fail_daemon d "exited during start-up";
    let port =
      if not tcp then Some None
      else
        List.find_map
          (fun l -> Scanf.sscanf_opt l "gmtd: tcp port %d" Option.some)
          (String.split_on_char '\n' (read_file d.out))
    in
    match (Gmt_service.Client.ping ~socket:d.socket, port) with
    | Ok _, Some p -> p
    | _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.002; go ()
    | _ -> fail_daemon d "did not become ready"
  in
  go ()

let terminate_all () = List.iter terminate !live

let cleanup () =
  terminate_all ();
  if Lazy.is_val run_dir then remove_tree (Lazy.force run_dir);
  try Unix.rmdir root with Unix.Unix_error _ -> ()

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("no VmHWM for process " ^ pid)
