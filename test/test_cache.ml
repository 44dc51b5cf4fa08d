(* The content-addressed artifact cache: golden cache keys (pinning the
   canonical serializer to the format version), the framed-digest
   sensitivity properties, disk round-trips through a second cache
   instance, corruption/stale-version eviction, LRU bounds, atomic
   writes, and [Render]'s use of it: one probe and one entry per cell.

   The golden table is the contract that a canonical-serializer change
   must bump [Fingerprint.format_version]: the keys below digest the
   exact [Text.print] bytes of two corpus kernels, so any serializer
   drift without a version bump lands here as a loud mismatch (and with
   a bump, [test_version_bump] proves every key changes). *)

module Cache = Gmt_cache.Cache
module Fingerprint = Gmt_cache.Fingerprint
module Diskio = Gmt_cache.Diskio
module V = Gmt_core.Velocity
module Render = Gmt_service.Render
module Text = Gmt_frontend.Text
module Suite = Gmt_workloads.Suite

let workload name =
  match Suite.lookup name with
  | Ok w -> w
  | Error e -> Alcotest.failf "suite lookup %s: %s" name e

let fingerprint name technique coco =
  let w = workload name in
  Render.fingerprint ~n_threads:2 ~coco technique ~canonical:(Text.print w)

(* ------------------------ golden fingerprints ---------------------- *)

(* Two corpus kernels x (GREMIO, DSWP) x (-COCO, +COCO), at 2 threads.
   Regenerate by running this test and copying the actual values — but
   only together with a [format_version] bump if the canonical
   serializer changed. *)
let golden =
  [
    ("ks", V.Gremio, false, "5e0fda7744e8cf7a60eec2b5dcbeddaf");
    ("ks", V.Gremio, true, "1144c410eab8e7ce881cd611b77d318b");
    ("ks", V.Dswp, false, "399db42592eca72cc0b2d1eeac6d000c");
    ("ks", V.Dswp, true, "536ac4772a67d91a0ccef346b1f91544");
    ("adpcmdec", V.Gremio, false, "8dab289467802a19cced2730482cebcd");
    ("adpcmdec", V.Gremio, true, "629c94a825fb2776d8fb9b4de815943c");
    ("adpcmdec", V.Dswp, false, "0b5c97fc77743210a039c0c145f658c3");
    ("adpcmdec", V.Dswp, true, "a5819f405f0e13d6093ee83355c3d3ce");
  ]

let test_golden_fingerprints () =
  List.iter
    (fun (name, technique, coco, expect) ->
      let label =
        Printf.sprintf "%s/%s%s" name
          (V.technique_name technique)
          (if coco then "+coco" else "")
      in
      Alcotest.(check string) label expect (fingerprint name technique coco))
    golden

let test_golden_distinct () =
  let keys = List.map (fun (_, _, _, k) -> k) golden in
  Alcotest.(check int)
    "8 distinct keys" 8
    (List.length (List.sort_uniq compare keys))

(* ------------------------- key sensitivity ------------------------- *)

let base_key ?version ?(text = "gmt-ir v1\n") ?(technique = "gremio")
    ?(n_threads = 2) ?(coco = false) ?(machine = "cores=2") () =
  Fingerprint.compute ?version ~text ~technique ~n_threads ~coco ~machine ()

let test_sensitivity () =
  let base = base_key () in
  let differs label key =
    Alcotest.(check bool) (label ^ " changes the key") false (base = key)
  in
  differs "text" (base_key ~text:"gmt-ir v1\n\n" ());
  differs "technique" (base_key ~technique:"dswp" ());
  differs "n_threads" (base_key ~n_threads:3 ());
  differs "coco" (base_key ~coco:true ());
  differs "machine" (base_key ~machine:"cores=4" ());
  (* Length framing: moving bytes across a field boundary must not
     collide. *)
  Alcotest.(check bool) "framing" false
    (base_key ~technique:"ab" ~machine:"c" ()
    = base_key ~technique:"a" ~machine:"bc" ());
  Alcotest.(check string) "deterministic" base (base_key ())

let test_version_bump () =
  (* A serializer change without a [format_version] bump is exactly what
     the golden table catches; this proves the bump then invalidates
     every key in one stroke. *)
  let bumped = Fingerprint.format_version + 1 in
  List.iter
    (fun (name, technique, coco, pinned) ->
      let w = workload name in
      let mc =
        V.machine_config ~n_cores:2 technique |> Format.asprintf "%a"
                                                   Gmt_machine.Config.pp
      in
      let key =
        Fingerprint.compute ~version:bumped ~text:(Text.print w)
          ~technique:(V.technique_name technique)
          ~n_threads:2 ~coco ~machine:mc ()
      in
      Alcotest.(check bool)
        (name ^ ": bumped version invalidates the pinned key")
        false (key = pinned))
    golden

(* --------------------------- output pin ---------------------------- *)

(* The golden fingerprints digest the compiler's input; this pins its
   output. A cached entry is served for as long as its
   [format_version] matches, so any change to a generated program must
   bump the version and re-pin here, or a warm cache would keep serving
   the old code. The digest is the MD5 of every Fig-8 multi-threaded
   cell's [Cache.encode_entry], in matrix order: the suite's kernels,
   each as GREMIO, GREMIO+COCO, DSWP, DSWP+COCO. The second pin digests
   the same cells at three and then four threads, kernel by kernel: the
   code [gmtc sweep] and GREMIO's k-way cut produce. *)
let output_pins = [ (3, "51332fc24f46dfd3e37dcd01b7647e71") ]
let output_pins_k34 = [ (3, "314465b03d00a44628cf895e002e1d8f") ]

let mt_cells =
  [ (V.Gremio, false); (V.Gremio, true); (V.Dswp, false); (V.Dswp, true) ]

let encode_cell (c : V.compiled) =
  Cache.encode_entry
    {
      Cache.mtp = c.V.mtp;
      comm_sites = List.length c.V.plan.Gmt_mtcg.Mtcg.comms;
      verified = true;
      w_name = c.V.workload.Gmt_workloads.Workload.name;
    }

(* [row w] compiles one kernel's four cells, in [mt_cells] order. *)
let output_digest row =
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.concat_map row (Suite.all ()))))

let pin_of pins =
  match List.assoc_opt Fingerprint.format_version pins with
  | Some d -> d
  | None ->
    Alcotest.failf "no output pin for format_version %d"
      Fingerprint.format_version

let test_output_pin () =
  let pinned = pin_of output_pins in
  Alcotest.(check string) "44 cells, one compile each" pinned
    (output_digest (fun w ->
         List.map
           (fun (technique, coco) -> encode_cell (V.compile ~coco technique w))
           mt_cells));
  (* The same cells as [run_matrix] builds them: one analysis per
     kernel, one partition per technique, shared by its two cells. *)
  Alcotest.(check string) "44 cells from shared stages" pinned
    (output_digest (fun w ->
         let an = V.analyze w in
         let parts =
           List.map (fun t -> (t, V.partition t an)) [ V.Gremio; V.Dswp ]
         in
         List.map
           (fun (technique, coco) ->
             encode_cell (V.codegen ~coco (List.assoc technique parts)))
           mt_cells));
  Alcotest.(check string) "88 cells at 3 and 4 threads"
    (pin_of output_pins_k34)
    (output_digest (fun w ->
         List.concat_map
           (fun n_threads ->
             List.map
               (fun (technique, coco) ->
                 encode_cell (V.compile ~n_threads ~coco technique w))
               mt_cells)
           [ 3; 4 ]))

(* --------------------------- disk store ---------------------------- *)

let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gmt-cache-test-%d" (Unix.getpid ()))
  in
  let rec cleanup path =
    if Sys.is_directory path then begin
      Array.iter
        (fun n -> cleanup (Filename.concat path n))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then cleanup dir;
  Diskio.ensure_dir dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let sample_entry () =
  let w = workload "ks" in
  let c = V.compile ~n_threads:2 V.Gremio w in
  {
    Cache.mtp = c.V.mtp;
    comm_sites = List.length c.V.plan.Gmt_mtcg.Mtcg.comms;
    verified = true;
    w_name = w.Gmt_workloads.Workload.name;
  }

let check_stats label (s : Cache.stats) ~hits ~misses ~stores ~evictions
    ~corrupt =
  Alcotest.(check (list int))
    (label ^ " stats")
    [ hits; misses; stores; evictions; corrupt ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.stores; s.Cache.evictions;
      s.Cache.corrupt ]

let test_disk_roundtrip () =
  with_tmpdir @@ fun dir ->
  let key = String.make 32 'a' in
  let e = sample_entry () in
  let c1 = Cache.create ~dir () in
  Alcotest.(check bool) "cold miss" true (Cache.find c1 key = None);
  Cache.store c1 key e;
  (* A second instance has a cold memory LRU: the hit must come from
     disk and carry the full entry. *)
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 key with
  | None -> Alcotest.fail "disk entry not found"
  | Some got ->
    Alcotest.(check int) "comm sites" e.Cache.comm_sites got.Cache.comm_sites;
    Alcotest.(check bool) "verified" true got.Cache.verified;
    Alcotest.(check string) "workload name" "ks" got.Cache.w_name;
    Alcotest.(check int) "threads"
      (Array.length e.Cache.mtp.Gmt_ir.Mtprog.threads)
      (Array.length got.Cache.mtp.Gmt_ir.Mtprog.threads));
  (* Promoted to memory: the next find hits without touching disk. *)
  Option.iter Sys.remove (Cache.entry_path c2 key);
  Alcotest.(check bool) "memory hit after promotion" true
    (Cache.find c2 key <> None);
  check_stats "second instance" (Cache.stats c2) ~hits:2 ~misses:0 ~stores:0
    ~evictions:0 ~corrupt:0

let test_corrupt_entry_evicted () =
  with_tmpdir @@ fun dir ->
  let key = String.make 32 'b' in
  let c1 = Cache.create ~dir () in
  Cache.store c1 key (sample_entry ());
  let path = Option.get (Cache.entry_path c1 key) in
  (* Flip payload bytes behind the checksum's back. *)
  let contents = Option.get (Diskio.read_file path) in
  let broken = Bytes.of_string contents in
  let last = Bytes.length broken - 1 in
  Bytes.set broken last (Char.chr (Char.code (Bytes.get broken last) lxor 0xff));
  Diskio.write_atomic path (Bytes.to_string broken);
  let c2 = Cache.create ~dir () in
  Alcotest.(check bool) "corrupt entry misses" true (Cache.find c2 key = None);
  Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists path);
  check_stats "after corruption" (Cache.stats c2) ~hits:0 ~misses:1 ~stores:0
    ~evictions:1 ~corrupt:1;
  (* The caller recompiles and overwrites transparently. *)
  Cache.store c2 key (sample_entry ());
  Alcotest.(check bool) "recompiled entry hits" true
    (Cache.find c2 key <> None)

let test_stale_version_evicted () =
  with_tmpdir @@ fun dir ->
  let key = String.make 32 'c' in
  let c1 = Cache.create ~dir () in
  Cache.store c1 key (sample_entry ());
  let path = Option.get (Cache.entry_path c1 key) in
  let contents = Option.get (Diskio.read_file path) in
  (* Rewrite the header as a future format version, payload intact. *)
  let nl = String.index contents '\n' in
  let rest = String.sub contents nl (String.length contents - nl) in
  Diskio.write_atomic path
    (Printf.sprintf "gmt-cache/%d%s" (Fingerprint.format_version + 1) rest);
  let c2 = Cache.create ~dir () in
  Alcotest.(check bool) "stale version misses" true (Cache.find c2 key = None);
  Alcotest.(check bool) "stale entry deleted" false (Sys.file_exists path);
  Alcotest.(check int) "counted corrupt" 1 (Cache.stats c2).Cache.corrupt

let test_lru_eviction () =
  let c = Cache.create ~mem_capacity:2 () in
  let e = sample_entry () in
  let key i = Printf.sprintf "%032d" i in
  Cache.store c (key 1) e;
  Cache.store c (key 2) e;
  Alcotest.(check bool) "touch 1" true (Cache.find c (key 1) <> None);
  (* 2 is now least recently used; a third insert evicts it. *)
  Cache.store c (key 3) e;
  Alcotest.(check bool) "1 survives" true (Cache.find c (key 1) <> None);
  Alcotest.(check bool) "3 present" true (Cache.find c (key 3) <> None);
  Alcotest.(check bool) "2 evicted" true (Cache.find c (key 2) = None);
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

let test_atomic_write () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  Diskio.write_atomic path "first";
  Diskio.write_atomic path "second";
  Alcotest.(check (option string)) "overwrite" (Some "second")
    (Diskio.read_file path);
  Alcotest.(check (list string)) "no temp files left" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir))

(* --------------------- one entry per cell (Render) --------------------- *)

(* [Render] is the cache's one owner: a served run or check of a cell
   probes its key once and stores one entry on a miss. *)
let served_run cache name technique coco =
  Render.run_text
    ~cache:(cache, fingerprint name technique coco)
    ~technique ~coco ~threads:2
    (Text.print (workload name))

let served_check cache name technique coco =
  Render.check_text
    ~cache:(cache, fingerprint name technique coco)
    ~technique ~coco ~threads:2
    (Text.print (workload name))

let find_entry cache key =
  match Cache.find cache key with
  | Some e -> e
  | None -> Alcotest.fail "no entry under the cell's key"

let test_compile_cached () =
  let key = fingerprint "ks" V.Gremio false in
  let cache = Cache.create () in
  let o1 = served_run cache "ks" V.Gremio false in
  Alcotest.(check string) "first run is a miss" "miss" o1.Render.cache_status;
  let o2 = served_run cache "ks" V.Gremio false in
  Alcotest.(check string) "second run hits" "hit" o2.Render.cache_status;
  (* The cached code simulates to the same report, cycles included. *)
  Alcotest.(check string) "same report" o1.Render.out o2.Render.out;
  Alcotest.(check bool) "entry is verified" true
    (find_entry cache key).Cache.verified;
  Alcotest.(check int) "one store" 1 (Cache.stats cache).Cache.stores

(* The cycles a run report prints for its compiled cell. *)
let mt_cycles (o : Render.outcome) =
  match
    List.find_map
      (fun line ->
        try
          Scanf.sscanf line " multi-threaded : %d instrs %d cycles"
            (fun _ cycles -> Some cycles)
        with Scanf.Scan_failure _ | End_of_file -> None)
      (String.split_on_char '\n' o.Render.out)
  with
  | Some c -> c
  | None -> Alcotest.failf "no multi-threaded line in %S" o.Render.out

(* Execution-engine independence: the cache key digests the scheduling
   inputs (canonical text, technique, thread count, COCO, tool version)
   and nothing about how the result will be simulated. Both simulator
   engines must read the same entry, and simulating it under each must
   reproduce the cycles the served run reports. *)
let test_kernel_independent () =
  let module Sim = Gmt_machine.Sim in
  let module W = Gmt_workloads.Workload in
  let w = workload "ks" in
  let key = fingerprint "ks" V.Gremio false in
  let cache = Cache.create () in
  let o = served_run cache "ks" V.Gremio false in
  Alcotest.(check string) "seed run is a miss" "miss" o.Render.cache_status;
  List.iter
    (fun (name, run) ->
      let hits = (Cache.stats cache).Cache.hits in
      let e = find_entry cache key in
      Alcotest.(check int) (name ^ " run hits the same entry") (hits + 1)
        (Cache.stats cache).Cache.hits;
      let r : Sim.result = run (V.machine_config V.Gremio) e.Cache.mtp in
      Alcotest.(check int) (name ^ " cycles") (mt_cycles o) r.Sim.cycles)
    [
      ( "legacy",
        fun mc p ->
          Gmt_machine.Legacy.run ~init_regs:w.W.reference.W.regs
            ~init_mem:w.W.reference.W.mem mc p ~mem_size:w.W.mem_size );
      ( "jit",
        fun mc p ->
          Sim.run ~init_regs:w.W.reference.W.regs
            ~init_mem:w.W.reference.W.mem mc p ~mem_size:w.W.mem_size );
    ];
  Alcotest.(check int) "one store total" 1 (Cache.stats cache).Cache.stores

(* A run and a check of one cell share its key, so whichever comes
   second hits the entry the first stored and prints what offline gmtc
   prints; in either order the stored entry is the same bytes. *)
let test_run_check_share_entry () =
  let name = "adpcmdec" and technique = V.Gremio and coco = true in
  let w = workload name in
  let key = fingerprint name technique coco in
  let offline_run = Render.run ~technique ~coco ~threads:2 w in
  let offline_check = Render.check ~technique ~coco ~threads:2 w in
  let second label expect (o : Render.outcome) =
    Alcotest.(check string) (label ^ " hits") "hit" o.Render.cache_status;
    Alcotest.(check string) (label ^ " prints offline bytes")
      expect.Render.out o.Render.out
  in
  let a = Cache.create () in
  ignore (served_run a name technique coco);
  second "check after run" offline_check (served_check a name technique coco);
  let b = Cache.create () in
  ignore (served_check b name technique coco);
  second "run after check" offline_run (served_run b name technique coco);
  Alcotest.(check string) "one entry, either order"
    (Cache.encode_entry (find_entry a key))
    (Cache.encode_entry (find_entry b key))

let tests =
  [
    Alcotest.test_case "golden fingerprints" `Quick test_golden_fingerprints;
    Alcotest.test_case "golden keys distinct" `Quick test_golden_distinct;
    Alcotest.test_case "key sensitivity" `Quick test_sensitivity;
    Alcotest.test_case "version bump invalidates" `Quick test_version_bump;
    Alcotest.test_case "output pin" `Quick test_output_pin;
    Alcotest.test_case "disk round-trip" `Quick test_disk_roundtrip;
    Alcotest.test_case "corrupt entry evicted" `Quick
      test_corrupt_entry_evicted;
    Alcotest.test_case "stale version evicted" `Quick
      test_stale_version_evicted;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "atomic write" `Quick test_atomic_write;
    Alcotest.test_case "compile_cached" `Quick test_compile_cached;
    Alcotest.test_case "kernel-independent keys" `Quick
      test_kernel_independent;
    Alcotest.test_case "run and check share one entry" `Quick
      test_run_check_share_entry;
  ]
