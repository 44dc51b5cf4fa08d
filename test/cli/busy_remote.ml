(* [busy_remote.exe GMTC]: a busy daemon's refusal reaches [gmtc remote]
   as exit 6 and the busy message, even when the request is larger than
   the socket buffer, so the daemon hangs up before reading it. It
   starts [GMTC serve --jobs 1 --queue-bound 1], holds its one slot with
   an idle connection, and runs [GMTC remote check 177.mesa] (a 509 KB
   payload) against it. Exits 1 on any other outcome, such as the
   client dying of SIGPIPE. *)

let socket = "busy-remote.sock"

let () =
  let gmtc = Sys.argv.(1) in
  (* Children start with the default SIGPIPE action, as from a shell,
     whatever this process inherited. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let daemon =
    Unix.create_process gmtc
      [|
        gmtc; "serve"; "--socket"; socket; "--jobs"; "1"; "--queue-bound"; "1";
      |]
      null null null
  in
  let idle = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stop () =
    (try Unix.close idle with Unix.Unix_error _ -> ());
    (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] daemon)
  in
  let verdict =
    Fun.protect ~finally:stop @@ fun () ->
    (* The idle connection is the first the daemon accepts, so it holds
       the one slot before the client connects. *)
    let deadline = Unix.gettimeofday () +. 10. in
    let rec connect () =
      match Unix.connect idle (Unix.ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        connect ()
    in
    connect ();
    let err_r, err_w = Unix.pipe ~cloexec:true () in
    let client =
      Unix.create_process gmtc
        [| gmtc; "remote"; "check"; "177.mesa"; "--socket"; socket |]
        null null err_w
    in
    Unix.close err_w;
    let err = In_channel.input_all (Unix.in_channel_of_descr err_r) in
    (snd (Unix.waitpid [] client), err)
  in
  let busy = "gmtd: busy" in
  match verdict with
  | Unix.WEXITED 6, err
    when String.length err >= String.length busy
         && String.sub err 0 (String.length busy) = busy ->
    ()
  | Unix.WEXITED n, err ->
    Printf.eprintf "gmtc remote check exited %d (want 6), stderr: %s\n" n err;
    exit 1
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    Printf.eprintf "gmtc remote check died of %s (want exit 6)\n"
      (if s = Sys.sigpipe then "SIGPIPE" else Printf.sprintf "signal %d" s);
    exit 1
