(* Golden determinism tests: every registry protocol, run on a fixed
   distribution and workload, must keep producing byte-identical histories
   and network statistics.  The digests below were captured from the seed
   event engine (tuple-keyed Pqueue scheduler, list-based causal pending
   buffers) immediately before the int-keyed/ring-buffer rewrite; the
   rewrite's behaviour contract is that none of them move.

   The lossy digests (and the experiment-table digest, whose L1 sweep
   injects loss) were re-pinned when fault decisions moved to a dedicated
   RNG stream split off the latency stream: only runs that actually flip
   fault coins could move, and the fault-free digests above prove the
   split left the latency draws untouched.

   The pram-reliable digests (clean and lossy), the tables digest and the
   A2X table digest were re-pinned when pram-reliable became pram-partial
   over the session layer: its private go-back-N and its acks left the
   protocol lane, and the session's standalone acks draw their own
   latencies, so its histories, counts and table rows moved.  Every other
   digest held.

   The E1X-scale digests run the shape the sim-check benchmark simulates
   (32 processes, 64 variables, 3 replicas each, 8 ops per process, 40%
   reads): at that size causal delivery buffers park, wake and batch
   rounds, which six processes rarely exercise.

   Every digest above runs the registry default [Latency.lan] (1-5 ticks).
   The WAN digests run the E1X shape under [Latency.wan] (exponential, mean
   50, capped at 500 ticks), so most events are scheduled far past the
   clock; they were captured on the binary-heap scheduler, before near
   events moved to a time-slot ring.

   Regenerate with:  GOLDEN_DUMP=1 dune exec test/test_golden.exe  *)

module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Workload = Repro_core.Workload
module Pram_reliable = Repro_core.Pram_reliable
module Fault = Repro_msgpass.Fault
module Distribution = Repro_sharegraph.Distribution
module History = Repro_history.History
module Experiment = Repro_experiments.Experiment
module Rng = Repro_util.Rng
module Bitset = Repro_util.Bitset

let seeds = [ 11; 22; 33 ]

let hoopy = Distribution.of_lists ~n_vars:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ]

let fingerprint name seed (memory : Memory.t) (h : History.t) =
  let m = memory.Memory.metrics () in
  let mentioned =
    Array.to_list m.Memory.mentioned_at
    |> List.map (fun set -> Format.asprintf "%a" Bitset.pp set)
    |> String.concat ";"
  in
  let payload =
    Printf.sprintf "%s/%d\n%s\nsent=%d delivered=%d ctrl=%d payload=%d applied=%d now=%d\nmentioned=%s"
      name seed (History.to_string h) m.Memory.messages_sent
      m.Memory.messages_delivered m.Memory.control_bytes m.Memory.payload_bytes
      m.Memory.applied_writes
      (memory.Memory.now ())
      mentioned
  in
  Digest.to_hex (Digest.string payload)

let run_spec (spec : Registry.spec) seed =
  let dist =
    if spec.Registry.requires_full_replication then
      Distribution.full ~n_procs:6 ~n_vars:8
    else
      Distribution.random (Rng.create (777 + seed)) ~n_procs:6 ~n_vars:8
        ~replicas_per_var:3
  in
  let memory = spec.Registry.make ~dist ~seed () in
  let h = Workload.run_random ~seed:(seed + 1) memory in
  fingerprint spec.Registry.name seed memory h

let run_lossy seed =
  (* pin pram-reliable's lossy behaviour too (the registry entry runs it
     over clean channels): 20% drop, 10% duplication *)
  let plan =
    { Fault.Plan.none with
      seed;
      default_link = { Fault.Plan.clean with drop = 0.2; duplicate = 0.1 } }
  in
  let memory = Pram_reliable.create ~plan ~dist:hoopy ~seed () in
  let h = Workload.run_random ~seed:(seed + 1) memory in
  fingerprint "pram-reliable-lossy" seed memory h

let cases () =
  List.concat_map
    (fun seed ->
      List.map
        (fun spec -> (spec.Registry.name, seed, run_spec spec seed))
        Registry.all
      @ [ ("pram-reliable-lossy", seed, run_lossy seed) ])
    seeds

(* E1X shape: causal-partial, causal-gossip and pram-partial on a random
   3-replica distribution; causal-full and causal-delta on full
   replication, since they require it *)
let e1x_seeds = [ 1; 2 ]

let e1x_protocols =
  [ "causal-partial"; "causal-gossip"; "pram-partial"; "causal-full"; "causal-delta" ]

let run_e1x ?latency ?(tag = "-e1x") name seed =
  let spec = Option.get (Registry.find name) in
  let n_procs = 32 and n_vars = 64 in
  let dist =
    if spec.Registry.requires_full_replication then
      Distribution.full ~n_procs ~n_vars
    else
      Distribution.random (Rng.create (seed + n_procs)) ~n_procs ~n_vars
        ~replicas_per_var:3
  in
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  let memory = spec.Registry.make ?latency ~dist ~seed () in
  let h = Workload.run_random ~profile ~seed:(seed + 1) memory in
  fingerprint (name ^ tag) seed memory h

let e1x_cases () =
  List.concat_map
    (fun seed -> List.map (fun name -> (name, seed, run_e1x name seed)) e1x_protocols)
    e1x_seeds

(* the same shape with most events scheduled beyond 64 ticks of the clock *)
let wan_protocols = [ "causal-partial"; "pram-partial"; "causal-full" ]

let wan_cases () =
  List.concat_map
    (fun seed ->
      List.map
        (fun name ->
          (name, seed, run_e1x ~latency:Repro_msgpass.Latency.wan ~tag:"-e1x-wan" name seed))
        wan_protocols)
    e1x_seeds

let tables_digest () =
  let rendered =
    Experiment.all ~seed:20_240_601 ()
    |> List.map Experiment.render
    |> String.concat "\n"
  in
  Digest.to_hex (Digest.string rendered)

(* E1X and A2X are catalogue-only (not in [Experiment.all]), so the tables
   digest above does not cover them: pin each table as [repro experiment]
   renders it, at the CLI's default seed 1 *)
let scaled_table_ids = [ "E1X"; "A2X" ]

let scaled_table_digest id =
  let table = (Option.get (Experiment.find id)) ~seed:1 () in
  Digest.to_hex (Digest.string (Experiment.render table))

(* --- expected digests (seed engine, captured pre-rewrite) ----------------- *)

let expected =
  [
    ("atomic-primary", 11, "1aacd079ad6ffef6baec9d35715ebe09");
    ("seq-sequencer", 11, "a2b1eb67df5f1640674de077c377713f");
    ("causal-full", 11, "537acdadc809dba41c77b20505f929d6");
    ("causal-delta", 11, "198173d447d5337b13989ce7e2d4c52a");
    ("causal-partial", 11, "f6a283ec000d607e0a7f47409169d61d");
    ("causal-gossip", 11, "4dd47ad570962814cfe76c04a7cde69b");
    ("causal-adhoc", 11, "bb5ffe92e6a63fe65799cf51a1ca1420");
    ("pram-partial", 11, "dd9af8c742376361dc0b6c63ee69d435");
    ("pram-reliable", 11, "b312f0ebb7d85099fa7a24a1e927038d");
    ("slow-partial", 11, "96a07d3952847727f594ebfcc69b52dd");
    ("pram-reliable-lossy", 11, "29a66120384158b60914effb1e29d70d");
    ("atomic-primary", 22, "e82394d6cbdd9bde11aacc426de30b8e");
    ("seq-sequencer", 22, "26e2260a6ea50201b44d709441148d5a");
    ("causal-full", 22, "b620a1371aaf14099a3b22ff290601f1");
    ("causal-delta", 22, "813482e61bad8b9f735c84fbeef69c8f");
    ("causal-partial", 22, "c4e36db8f017498ef128dde68d995609");
    ("causal-gossip", 22, "1bbfcf5a9447e3f98083db451e5d1f2b");
    ("causal-adhoc", 22, "b8ac6ab77100a7d9cc09a5daddf2f8e6");
    ("pram-partial", 22, "6ff7b5c9d7bfe1dd2f9f967292062599");
    ("pram-reliable", 22, "3d6414c988711ca33a84671b74130bc8");
    ("slow-partial", 22, "7f81b8459dfed262e5800f3df13c39e3");
    ("pram-reliable-lossy", 22, "f068a3059414281bac654f651f6fbf59");
    ("atomic-primary", 33, "625b90fec005afc2f43d7960f59712a2");
    ("seq-sequencer", 33, "60c1ab47170eafdd8540af2923e87931");
    ("causal-full", 33, "862d32cca0a986903af1d8cb0f30e6dd");
    ("causal-delta", 33, "482d52ca41cd4cc854c2ee2d6148c8f6");
    ("causal-partial", 33, "42a37bbcc619a7b441951c5b57e8c4fc");
    ("causal-gossip", 33, "35d5bdaf1016491c87d0dcde6b1ad96e");
    ("causal-adhoc", 33, "815562b15314d0c87e493596cd4afa9e");
    ("pram-partial", 33, "1da96f1ffc0b97ff1e28548bb5faad66");
    ("pram-reliable", 33, "e499d390091342bd4db0b70832915336");
    ("slow-partial", 33, "0c86a7db19b0cb7f4617da214c4fd4c9");
    ("pram-reliable-lossy", 33, "79618909dd6b721fca752ec170689d45");
  ]

let expected_tables = "65e518dcf8c1e29f826fd01375a95d38"

let expected_scaled_tables =
  [ ("E1X", "39b0c22e4d43d465fbbe33e1a6c68c85");
    ("A2X", "dc4dbe79878c75f269fc2070a6011ad8") ]

(* captured on the engine with per-recipient pooled stamps, before the
   shared-stamp / closure-free causal buffer rewrite *)
let expected_e1x =
  [
    ("causal-partial", 1, "e5ec342a93884eb45b311124bde58fb6");
    ("causal-gossip", 1, "0b5af5b5cc53e15a4c21dd9d1b9a1da8");
    ("pram-partial", 1, "b187ed38bde2a1b6dce16a68bdb74c75");
    ("causal-full", 1, "07e301df9b20e4ee6d8b4cec4e199eb9");
    ("causal-delta", 1, "0dbb2fb79bd068969320b1ff983f071b");
    ("causal-partial", 2, "fe3a3aa97fb7dac112a72dadbd02738b");
    ("causal-gossip", 2, "2bff75a9cf4509b95e6f850101984c27");
    ("pram-partial", 2, "09cfef9f5bb73684b101514819451bdf");
    ("causal-full", 2, "6c53c0a24259e242bd767e2ffcc0ee83");
    ("causal-delta", 2, "08dadecc91dac51b46a074a464e8e780");
  ]

(* captured on the binary-heap scheduler, before the time-slot ring *)
let expected_wan =
  [
    ("causal-partial", 1, "d3591073443b6d7a1ba61e283772978b");
    ("pram-partial", 1, "0b1bcda61c5196aba8b688c0e98d7d07");
    ("causal-full", 1, "ad314099635df54bd9f94ced7c3792b9");
    ("causal-partial", 2, "9670553926434407eb4140ba20c61596");
    ("pram-partial", 2, "c574f3991c3ce3128f5fff83623c0208");
    ("causal-full", 2, "861de5b117f7ad1b1bb998d02ad275f1");
  ]

let dump () =
  List.iter
    (fun (name, seed, digest) ->
      Printf.printf "    (%S, %d, %S);\n" name seed digest)
    (cases ());
  Printf.printf "  tables: %S\n" (tables_digest ());
  List.iter
    (fun id -> Printf.printf "  table %s: %S\n" id (scaled_table_digest id))
    scaled_table_ids;
  print_endline "  e1x:";
  List.iter
    (fun (name, seed, digest) ->
      Printf.printf "    (%S, %d, %S);\n" name seed digest)
    (e1x_cases ());
  print_endline "  wan:";
  List.iter
    (fun (name, seed, digest) ->
      Printf.printf "    (%S, %d, %S);\n" name seed digest)
    (wan_cases ())

let check_digests expected cases =
  List.iter
    (fun (name, seed, digest) ->
      let expect =
        List.find_opt (fun (n, s, _) -> n = name && s = seed) expected
      in
      match expect with
      | None -> Alcotest.failf "no golden digest recorded for %s/%d" name seed
      | Some (_, _, d) ->
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d history+stats digest" name seed)
            d digest)
    cases

let test_protocol_digests () = check_digests expected (cases ())

let test_e1x_digests () = check_digests expected_e1x (e1x_cases ())

let test_wan_digests () = check_digests expected_wan (wan_cases ())

let test_tables_digest () =
  Alcotest.(check string) "experiment tables byte-identical" expected_tables
    (tables_digest ())

let test_scaled_table_digests () =
  List.iter
    (fun id ->
      Alcotest.(check string)
        (id ^ " table byte-identical")
        (List.assoc id expected_scaled_tables)
        (scaled_table_digest id))
    scaled_table_ids

let () =
  if Sys.getenv_opt "GOLDEN_DUMP" <> None then dump ()
  else
    Alcotest.run "repro_golden"
      [
        ( "golden",
          [
            Alcotest.test_case "protocol histories and stats" `Quick
              test_protocol_digests;
            Alcotest.test_case "experiment tables" `Slow test_tables_digest;
            Alcotest.test_case "scaled tables E1X and A2X" `Quick
              test_scaled_table_digests;
            Alcotest.test_case "E1X-scale histories and stats" `Quick
              test_e1x_digests;
            Alcotest.test_case "E1X-scale WAN histories and stats" `Quick
              test_wan_digests;
          ] );
      ]
