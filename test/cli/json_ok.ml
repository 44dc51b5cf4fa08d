(* Exit 1 unless every file named on the command line parses as one
   JSON document. *)
let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    match
      Gmt_obs.Json.parse (In_channel.with_open_bin path In_channel.input_all)
    with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
  done
