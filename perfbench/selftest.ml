(* Self-tests of the benchmark's own machinery: determinism of its inputs
   and exact counts, the self-time rule, metric names, and the failure
   accounting of a run that answers nothing. *)

open Perfbench

let span id parent start stop =
  { Trace.id; parent; op = 0; layer = "l"; start; stop }

let self_of spans id =
  snd (List.find (fun ((s : Trace.span), _) -> s.Trace.id = id) (Trace.self_times spans))

let test_self_time () =
  (* parent [0,100]; children [10,30] and [20,50] overlap, [90,120] sticks
     out past the parent's end: covered = [10,50] + [90,100] = 50 *)
  let spans =
    [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 20 50; span 3 0 90 120 ]
  in
  Alcotest.(check int) "parent self" 50 (self_of spans 0);
  Alcotest.(check int) "leaf self" 20 (self_of spans 1);
  (* nested: a grandchild does not count against the grandparent *)
  let spans = [ span 0 (-1) 0 10; span 1 0 2 8; span 2 1 3 7 ] in
  Alcotest.(check int) "grandparent" 4 (self_of spans 0);
  Alcotest.(check int) "child" 2 (self_of spans 1)

let test_metric_names () =
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) ("valid " ^ name) true (Report.valid_name name);
      ignore (Report.m name unit_ 1.0 : Report.metric))
    (Report.end_to_end_catalogue @ Report.per_layer_catalogue);
  List.iter
    (fun bad -> Alcotest.(check bool) ("invalid " ^ bad) false (Report.valid_name bad))
    [ ""; "µs"; "a b"; "x/y"; String.make 65 'a' ];
  let names =
    List.map fst (Report.end_to_end_catalogue @ Report.per_layer_catalogue)
  in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* A generator record with nothing sent and nothing answered. *)
let silent_run (plan : Plan.t) =
  let n = plan.Plan.n in
  let g =
    {
      Serve.send_ns = Plan.ints n;
      reply_ns = Plan.ints n;
      failed_outcomes = 0;
      wrong = 0;
      writev_calls = 0;
      bytes_out = 0;
      bytes_in = 0;
      cpu_s = 0.;
      wall_ns = 0;
      max_gap_ns = Array.make Plan.n_nodes 0;
      gaps = [];
      steal = [];
    }
  in
  Bigarray.Array1.fill g.Serve.send_ns (-1);
  Bigarray.Array1.fill g.Serve.reply_ns (-1);
  g

(* Node reports of a healthy node that served only its probe. *)
let node_report ?(retransmits = 0.) () =
  List.map
    (fun k ->
      ( k,
        match k with
        | "client_ops" -> 1.
        | "retransmits" -> retransmits
        | _ -> 0. ))
    [ "client_ops"; "messages_sent"; "control_bytes"; "dropped"; "reconnects";
      "retransmits" ]

let test_zero_answers () =
  let plan = Plan.build ~mix:Repro_loadgen.Mix.read_heavy ~seed:3 ~seconds:1 in
  let n = plan.Plan.n in
  let g = silent_run plan in
  let s = Serve.summarize plan g in
  Alcotest.(check int) "all unanswered" n s.Serve.unanswered;
  let gates =
    Serve.gates ~plan ~digest_ok:true ~node_errors:[]
      ~reports:(Array.init Plan.n_nodes (fun _ -> node_report ()))
      g s
  in
  Alcotest.(check bool) "answer gate fails" false
    (List.assoc "every planned op answered, none Failed" gates);
  let r =
    {
      Report.workload = "synthetic";
      attempted = n;
      failed = s.Serve.failed;
      gates;
      end_to_end = [];
      per_layer = [];
      notes = [];
    }
  in
  Alcotest.(check (float 0.)) "failed_share" 1.0 (Report.failed_share r);
  Alcotest.(check bool) "run fails" false (Report.correct r);
  Alcotest.(check bool) "p50 is +inf" true
    (Report.percentile (Report.sorted_of s.Serve.lat) 50. = infinity)

(* A retransmission passes the loopback gate only behind a reply gap that
   the host's steal covers, and only up to what that gap could cause. *)
let test_retransmit_excuse () =
  let plan = Plan.build ~mix:Repro_loadgen.Mix.write_heavy ~seed:3 ~seconds:1 in
  let ms x = x * 1_000_000 in
  let with_steal stolen_ms =
    let g = silent_run plan in
    g.Serve.gaps <- [ (ms 100, ms 160); (ms 110, ms 150) ];
    g.Serve.steal <- [ (ms 170, 1000 + stolen_ms); (ms 90, 1000) ];
    g
  in
  let excused g = Serve.excused_retransmits ~plan g 0 in
  Alcotest.(check int) "no gap, no excuse" 0 (excused (silent_run plan));
  Alcotest.(check int) "steal short of the gap, no excuse" 0 (excused (with_steal 30));
  let cap = excused (with_steal 60) in
  Alcotest.(check bool) "covered gap excuses some" true (cap > 0);
  Alcotest.(check bool) "bounded by the writes around the gap" true
    (cap < 2 * plan.Plan.writes / 5);
  let loopback g retransmits =
    let s = Serve.summarize plan g in
    List.assoc "loopback: no drop or reconnect, retransmits only behind host steal"
      (Serve.gates ~plan ~digest_ok:true ~node_errors:[]
         ~reports:
           [| node_report ~retransmits (); node_report () |]
         g s)
  in
  Alcotest.(check bool) "no retransmit passes" true (loopback (silent_run plan) 0.);
  Alcotest.(check bool) "unexplained retransmit fails" false
    (loopback (with_steal 30) 1.);
  Alcotest.(check bool) "covered retransmits pass" true
    (loopback (with_steal 60) (float_of_int cap));
  Alcotest.(check bool) "more than the gap explains fails" false
    (loopback (with_steal 60) (float_of_int (cap + 1)))

let test_serve_inputs_repeat () =
  List.iter
    (fun mix ->
      let a = Plan.build ~mix ~seed:5 ~seconds:2
      and b = Plan.build ~mix ~seed:5 ~seconds:2 in
      Alcotest.(check int) "same length" a.Plan.n b.Plan.n;
      Alcotest.(check bool) "same schedule" true
        (a.Plan.at_us = b.Plan.at_us && a.Plan.code = b.Plan.code);
      Alcotest.(check string) "same digest" (Plan.digest ~mix ~seed:5)
        (Plan.digest ~mix ~seed:5);
      let once = Plan.build ~mix ~seed:5 ~seconds:1 in
      let ctl name = Serve.control_bytes ~plan:once ~seed:5 name in
      Alcotest.(check int) "pram ctl repeats" (ctl "pram-partial") (ctl "pram-partial");
      Alcotest.(check int) "pram ctl = 8 B x fan-out" (8 * once.Plan.fanout)
        (ctl "pram-partial");
      Alcotest.(check int) "causal ctl repeats" (ctl "causal-partial")
        (ctl "causal-partial"))
    [ Repro_loadgen.Mix.read_heavy; Repro_loadgen.Mix.write_heavy ]

let test_simcheck_repeats () =
  let run () = fst (Simcheck.run_batch ~size:3 ~seed:9 ~trace:Trace.off ()) in
  let a = run () and b = run () in
  Alcotest.(check bool) "exact counts repeat" true (a = b);
  Alcotest.(check int) "all consistent" 0 a.Simcheck.inconsistent;
  Alcotest.(check string) "same digest"
    (Simcheck.digest ~size:3 ~seed:9 ())
    (Simcheck.digest ~size:3 ~seed:9 ());
  let per name l = List.assoc name l in
  Alcotest.(check bool) "theorem 1/2 gap" true
    (per "causal-partial" a.Simcheck.ctl > 100 * per "pram-partial" a.Simcheck.ctl)

let () =
  Alcotest.run "perfbench"
    [
      ( "trace",
        [ Alcotest.test_case "self time is duration minus child union" `Quick test_self_time ] );
      ( "report",
        [
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "zero answers fail every op" `Quick test_zero_answers;
          Alcotest.test_case "retransmits need host steal" `Quick test_retransmit_excuse;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "serve plan and counts repeat" `Quick test_serve_inputs_repeat;
          Alcotest.test_case "sim-check counts repeat" `Quick test_simcheck_repeats;
        ] );
    ]
