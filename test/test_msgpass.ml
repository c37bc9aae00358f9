(* Tests for Repro_msgpass: latency models, fault injection, the
   discrete-event network, and fibers. *)

module Rng = Repro_util.Rng
module Latency = Repro_msgpass.Latency
module Fault = Repro_msgpass.Fault
module Net = Repro_msgpass.Net
module Fiber = Repro_msgpass.Fiber
module Transport = Repro_transport.Transport
module Chaos = Repro_transport.Chaos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- latency ------------------------------------------------------------- *)

let test_latency_constant () =
  let g = Rng.create 1 in
  for _ = 1 to 20 do
    check Alcotest.int "constant" 7 (Latency.sample (Latency.constant 7) g ~src:0 ~dst:1)
  done

let test_latency_uniform_bounds =
  qcheck
    (QCheck.Test.make ~name:"latency_uniform_in_bounds" ~count:300 QCheck.small_int
       (fun seed ->
         let g = Rng.create seed in
         let l = Latency.uniform ~lo:2 ~hi:9 in
         let v = Latency.sample l g ~src:0 ~dst:1 in
         v >= 2 && v <= 9))

let test_latency_exponential_capped () =
  let g = Rng.create 3 in
  let l = Latency.exponential ~mean:10.0 ~cap:15 in
  for _ = 1 to 200 do
    let v = Latency.sample l g ~src:0 ~dst:1 in
    if v < 1 || v > 15 then Alcotest.failf "latency %d out of [1,15]" v
  done

let test_latency_per_link () =
  let g = Rng.create 1 in
  let l =
    Latency.per_link (fun ~src ~dst:_ ->
        if src = 0 then Latency.constant 1 else Latency.constant 50)
  in
  check Alcotest.int "link 0" 1 (Latency.sample l g ~src:0 ~dst:1);
  check Alcotest.int "link 1" 50 (Latency.sample l g ~src:1 ~dst:0)

let test_latency_validation () =
  Alcotest.check_raises "negative constant"
    (Invalid_argument "Latency.constant: negative latency") (fun () ->
      ignore (Latency.constant (-1)));
  Alcotest.check_raises "bad uniform" (Invalid_argument "Latency.uniform: bad range")
    (fun () -> ignore (Latency.uniform ~lo:5 ~hi:2))

(* --- network basics ------------------------------------------------------ *)

let make_net ?(n = 3) ?(latency = Latency.constant 5) ?(seed = 42) () =
  Net.create ~n ~latency ~seed ()

let test_net_delivery () =
  let net = make_net () in
  let got = ref [] in
  Net.set_handler net 1 (fun e -> got := e.Net.msg :: !got);
  Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 "hello";
  Net.run net;
  check Alcotest.(list string) "delivered" [ "hello" ] !got;
  check Alcotest.int "clock advanced" 5 (Net.now net)

let test_net_self_send () =
  let net = make_net () in
  let got = ref 0 in
  Net.set_handler net 0 (fun _ -> incr got);
  Net.send net ~src:0 ~dst:0 ~control_bytes:0 ~payload_bytes:0 ();
  check Alcotest.int "not synchronous" 0 !got;
  Net.run net;
  check Alcotest.int "delivered" 1 !got

let test_net_fifo_per_channel () =
  (* With random latencies, per-channel delivery must still match send
     order. *)
  let net = Net.create ~n:2 ~latency:(Latency.uniform ~lo:1 ~hi:50) ~seed:7 () in
  let got = ref [] in
  Net.set_handler net 1 (fun e -> got := e.Net.msg :: !got);
  for k = 1 to 30 do
    Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 k
  done;
  Net.run net;
  check Alcotest.(list int) "fifo order" (List.init 30 (fun i -> i + 1)) (List.rev !got)

let test_net_reorder_without_fifo () =
  (* Same experiment on a non-FIFO channel: some inversion should appear. *)
  let net =
    Net.create ~fifo:false ~n:2 ~latency:(Latency.uniform ~lo:1 ~hi:50) ~seed:7 ()
  in
  let got = ref [] in
  Net.set_handler net 1 (fun e -> got := e.Net.msg :: !got);
  for k = 1 to 30 do
    Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 k
  done;
  Net.run net;
  let arrived = List.rev !got in
  check Alcotest.int "all delivered" 30 (List.length arrived);
  check Alcotest.bool "some inversion" true (arrived <> List.sort compare arrived)

let test_net_determinism () =
  let run_once () =
    let net = Net.create ~n:4 ~latency:(Latency.uniform ~lo:1 ~hi:20) ~seed:11 () in
    let log = ref [] in
    for p = 0 to 3 do
      Net.set_handler net p (fun e ->
          log :=
            Printf.sprintf "%d:%d->%d=%d" (Net.now net) e.Net.src e.Net.dst e.Net.msg
            :: !log)
    done;
    for i = 0 to 3 do
      for j = 0 to 3 do
        if i <> j then
          Net.send net ~src:i ~dst:j ~control_bytes:0 ~payload_bytes:0
            ((i * 10) + j)
      done
    done;
    Net.run net;
    List.rev !log
  in
  check Alcotest.(list string) "identical traces" (run_once ()) (run_once ())

let test_net_timer_ordering () =
  let net = make_net () in
  let log = ref [] in
  Net.at net ~delay:10 (fun () -> log := "b" :: !log);
  Net.at net ~delay:5 (fun () -> log := "a" :: !log);
  Net.at net ~delay:10 (fun () -> log := "c" :: !log);
  Net.run net;
  check Alcotest.(list string) "time then insertion order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_net_timer_negative () =
  let net = make_net () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Net.at: negative delay")
    (fun () -> Net.at net ~delay:(-1) (fun () -> ()))

let test_net_run_until () =
  let net = make_net () in
  let fired = ref 0 in
  Net.at net ~delay:5 (fun () -> incr fired);
  Net.at net ~delay:15 (fun () -> incr fired);
  Net.run_until net 10;
  check Alcotest.int "only first" 1 !fired;
  check Alcotest.int "clock at deadline" 10 (Net.now net);
  Net.run net;
  check Alcotest.int "second eventually" 2 !fired

let test_net_run_until_budget () =
  let net = make_net () in
  (* a poller that reschedules itself at the current instant never drains
     the queue; run_until must hit its budget rather than spin forever *)
  let rec poll () = Net.at net ~delay:0 (fun () -> poll ()) in
  poll ();
  Alcotest.check_raises "budget"
    (Failure "Net.run_until: event budget exhausted (livelock or unbounded polling?)")
    (fun () -> Net.run_until ~max_events:100 net 5)

let test_net_packed_key_overflow () =
  (* timers beyond 2^31 ticks force the scheduler off its packed int keys
     onto widened (time, seq) keys, migrating what is already queued *)
  let far = 1 lsl 31 in
  let net = make_net () in
  let log = ref [] in
  Net.at net ~delay:3 (fun () -> log := "a" :: !log);
  Net.at net ~delay:(far + 1) (fun () -> log := "c" :: !log);
  Net.at net ~delay:5 (fun () -> log := "b" :: !log);
  Net.at net ~delay:(far + 1) (fun () -> log := "d" :: !log);
  Net.run net;
  check Alcotest.(list string) "time then insertion order" [ "a"; "b"; "c"; "d" ]
    (List.rev !log);
  check Alcotest.int "clock past boundary" (far + 1) (Net.now net)

(* --- event path allocation ------------------------------------------------ *)

(* Popping an event and dispatching it allocates nothing: deliveries and
   timers, near and far past the clock, come off the queue without a
   closure, a box or a copy. *)
let test_net_step_allocation () =
  let net = make_net ~n:4 ~latency:(Latency.uniform ~lo:0 ~hi:200) () in
  for p = 0 to 3 do
    Net.set_handler net p (fun _ -> ())
  done;
  let events = ref 0 in
  for i = 0 to 999 do
    Net.send net ~src:(i mod 4) ~dst:((i + 1) mod 4) ~control_bytes:0 ~payload_bytes:0 ();
    Net.at net ~delay:(i mod 300) (fun () -> ());
    events := !events + 2
  done;
  let pops = ref 0 in
  let w0 = Gc.minor_words () in
  while Net.step net do
    incr pops
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "every event popped" !events !pops;
  let per_pop = words /. float_of_int !pops in
  if per_pop > 0.01 then Alcotest.failf "Net.step allocates %.3f words per pop" per_pop

(* A send allocates its envelope (7 fields and a header) and its queue
   entry ([Deliver], 1 field and a header): 10 words, also when the FIFO
   horizon holds the delivery back past its latency draw.  The queue has
   already grown to the load, as it has in a running simulation. *)
let test_net_send_allocation () =
  let net = make_net ~n:2 ~latency:(Latency.uniform ~lo:1 ~hi:20) () in
  let times = ref [] in
  Net.set_handler net 1 (fun e -> times := e.Net.deliver_time :: !times);
  let burst () =
    for _ = 1 to 1000 do
      Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 ()
    done
  in
  burst ();
  Net.run net;
  times := [];
  let start = Net.now net in
  let w0 = Gc.minor_words () in
  burst ();
  let words = Gc.minor_words () -. w0 in
  Net.run net;
  (* a burst of 1000 on one link with draws of at most 20 ticks: all but
     the first few were held back by the horizon *)
  check Alcotest.bool "horizon moved later sends" true
    (List.hd !times >= start + 1000);
  let per_msg = words /. 1000.0 in
  if Float.abs (per_msg -. 10.0) > 0.01 then
    Alcotest.failf "Net.send allocates %.3f words per message, not 10" per_msg

let plan_of text =
  match Fault.Plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

(* Net itself is reliable: faults are a plan applied over the sim backend *)
let chaos_sim plan =
  let factory, _ =
    Chaos.wrap ~plan:(plan_of plan)
      (Transport.sim ~latency:(Latency.constant 1) ~seed:3 ())
  in
  factory.Transport.create 2

let test_net_drop_faults () =
  let tr = chaos_sim "drop=1.0" in
  let got = ref 0 in
  tr.Transport.set_handler 1 (fun _ -> incr got);
  for _ = 1 to 20 do
    tr.Transport.send ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 ()
  done;
  tr.Transport.quiesce ();
  check Alcotest.int "all dropped" 0 !got;
  let s = tr.Transport.stats () in
  check Alcotest.int "dropped counted" 20 s.Net.dropped;
  check Alcotest.int "none reached the net" 0 s.Net.sent

let test_net_duplicate_faults () =
  let tr = chaos_sim "dup=1.0" in
  let got = ref 0 in
  tr.Transport.set_handler 1 (fun _ -> incr got);
  for _ = 1 to 10 do
    tr.Transport.send ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 ()
  done;
  tr.Transport.quiesce ();
  check Alcotest.int "every message twice" 20 !got;
  check Alcotest.int "duplicated counted" 10
    (tr.Transport.stats ()).Net.duplicated

let test_net_stats_accounting () =
  let net = make_net () in
  Net.set_handler net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 ~control_bytes:16 ~payload_bytes:8 ();
  Net.send net ~src:2 ~dst:1 ~control_bytes:4 ~payload_bytes:0 ();
  Net.run net;
  let s = Net.stats net in
  check Alcotest.int "sent" 2 s.Net.sent;
  check Alcotest.int "delivered" 2 s.Net.delivered;
  check Alcotest.int "control" 20 s.Net.total_control_bytes;
  check Alcotest.int "payload" 8 s.Net.total_payload_bytes;
  check Alcotest.(array int) "per-node sent" [| 1; 0; 1 |] s.Net.per_node_sent;
  check Alcotest.(array int) "per-node received" [| 0; 2; 0 |] s.Net.per_node_received

let test_net_trace () =
  let net = make_net () in
  Net.set_tracing net true;
  Net.set_handler net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 "m";
  Net.run net;
  match Net.trace net with
  | [ Net.Sent e1; Net.Delivered e2 ] ->
      check Alcotest.string "same message" e1.Net.msg e2.Net.msg
  | other -> Alcotest.failf "unexpected trace of length %d" (List.length other)

let test_net_handler_cascade () =
  (* handlers may send more messages: a 3-hop relay *)
  let net = make_net () in
  let arrived = ref false in
  Net.set_handler net 1 (fun e ->
      Net.send net ~src:1 ~dst:2 ~control_bytes:0 ~payload_bytes:0 e.Net.msg);
  Net.set_handler net 2 (fun _ -> arrived := true);
  Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 ();
  Net.run net;
  check Alcotest.bool "relayed" true !arrived;
  check Alcotest.int "two hops of 5" 10 (Net.now net)

let test_net_livelock_detection () =
  let net = make_net () in
  let rec rearm () = Net.at net ~delay:1 rearm in
  rearm ();
  Alcotest.check_raises "budget"
    (Failure "Net.run: event budget exhausted (livelock or unbounded polling?)")
    (fun () -> Net.run ~max_events:100 net)

let test_net_service_time () =
  (* 5 messages to one node with service time 10: arrivals at 1, then one
     per 10 ticks *)
  let net =
    Net.create ~service_time:10 ~n:2 ~latency:(Latency.constant 1) ~seed:1 ()
  in
  let times = ref [] in
  Net.set_handler net 1 (fun _ -> times := Net.now net :: !times);
  for _ = 1 to 5 do
    Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 ()
  done;
  Net.run net;
  check Alcotest.(list int) "queued service" [ 1; 11; 21; 31; 41 ] (List.rev !times)

let test_net_service_time_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Net.create: negative service time")
    (fun () ->
      ignore (Net.create ~service_time:(-1) ~n:1 ~latency:(Latency.constant 1) ~seed:0 ()))

let test_net_bad_endpoint () =
  let net = make_net () in
  Alcotest.check_raises "bad dst" (Invalid_argument "Net.send: bad endpoint") (fun () ->
      Net.send net ~src:0 ~dst:9 ~control_bytes:0 ~payload_bytes:0 ())

(* --- fault plans ----------------------------------------------------------- *)

let test_plan_parse_fields () =
  let p =
    plan_of
      "seed=5,drop=0.05,dup=0.01,reorder=0.2,delay=40,link=0>2:drop=0.5,part=100..400:0+2,crash=1@6+300"
  in
  check (Alcotest.float 1e-9) "default drop" 0.05 p.Fault.Plan.default_link.Fault.Plan.drop;
  check (Alcotest.float 1e-9) "default dup" 0.01
    p.Fault.Plan.default_link.Fault.Plan.duplicate;
  check Alcotest.int "delay cap" 40 p.Fault.Plan.delay_max;
  let l = Fault.Plan.link_for p ~src:0 ~dst:2 in
  check (Alcotest.float 1e-9) "link override" 0.5 l.Fault.Plan.drop;
  let l10 = Fault.Plan.link_for p ~src:1 ~dst:0 in
  check (Alcotest.float 1e-9) "other links default" 0.05 l10.Fault.Plan.drop;
  match Fault.Plan.crash_for p 1 with
  | Some c ->
      check Alcotest.int "crash after sends" 6 c.Fault.Plan.after_sends;
      check Alcotest.(option int) "restart delay" (Some 300) c.Fault.Plan.restart_after
  | None -> Alcotest.fail "crash entry lost"

let test_plan_to_string_roundtrip () =
  let texts =
    [
      "seed=5,drop=0.05,dup=0.01,crash=1@6+300";
      "drop=0.1,link=0>2:drop=0.5:reorder=0.3,part=100..400:0+2";
      "seed=11,reorder=0.25,delay=80,crash=0@3";
      "seed=1";
    ]
  in
  List.iter
    (fun text ->
      let p = plan_of text in
      let rendered = Fault.Plan.to_string p in
      let p2 = plan_of rendered in
      check Alcotest.string
        (Printf.sprintf "fixed point for %S" text)
        rendered (Fault.Plan.to_string p2))
    texts

let test_plan_clauses () =
  let clauses text =
    match Fault.Plan.parse text with
    | Ok p -> Fault.Plan.clauses p
    | Error msg -> Alcotest.failf "parse %S: %s" text msg
  in
  Alcotest.(check (list string)) "a seed alone is no fault clause" []
    (clauses "seed=3");
  Alcotest.(check (list string)) "every kind, in to_string order"
    [ "drop"; "dup"; "reorder"; "delay"; "link"; "part"; "crash"; "dcrash";
      "join"; "leave" ]
    (clauses
       "leave=2@9,join=1@5,dcrash=0:sync.pre@1,crash=1@6+250,part=0..10:0+1,\
        link=0>1:drop=0.5,delay=4,reorder=0.1,dup=0.02,drop=0.05,seed=7");
  Alcotest.(check (list string)) "a link override is not a default drop"
    [ "link" ] (clauses "link=0>1:drop=0.5");
  Alcotest.(check (list string)) "membership only" [ "join"; "leave" ]
    (clauses "seed=7,join=4@250,leave=1@600");
  (* the one gate every runtime puts a plan through *)
  let check_plan ?n ~rejects text =
    Fault.Plan.check ?n ~runtime:"this runtime" ~rejects
      (Option.map (fun t -> Result.get_ok (Fault.Plan.parse t)) text)
  in
  let is_none_ok = function Ok None -> true | _ -> false in
  Alcotest.(check bool) "an absent plan is none" true
    (is_none_ok (check_plan ~rejects:[ "join" ] None));
  Alcotest.(check bool) "a seed alone is none" true
    (is_none_ok (check_plan ~rejects:[ "join" ] (Some "seed=3")));
  (match check_plan ~n:3 ~rejects:[] (Some "crash=9@5+100") with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is a chaos plan error" msg)
        true
        (String.starts_with ~prefix:"chaos plan: " msg)
  | Ok _ -> Alcotest.fail "node 9 accepted in a 3-node plan");
  Alcotest.(check (result reject string))
    "a rejected kind is named"
    (Error "chaos plan: this runtime does not apply join=")
    (check_plan ~rejects:[ "join"; "leave" ] (Some "seed=1,join=1@5"));
  Alcotest.(check bool) "an applied plan passes" true
    (match check_plan ~n:3 ~rejects:[ "join" ] (Some "seed=1,drop=0.1") with
    | Ok (Some p) -> p.Fault.Plan.default_link.Fault.Plan.drop = 0.1
    | _ -> false)

let test_plan_parse_rejects () =
  let bad =
    [
      "drop=1.5";              (* probability out of range *)
      "drop=abc";              (* not a number *)
      "frobnicate=1";          (* unknown clause *)
      "crash=1@6,crash=1@9";   (* duplicate crash entry for one node *)
      "part=400..100:0+2";     (* inverted window *)
      "crash=1@-2";            (* negative send count *)
      "link=0>1:drop=0.5,link=0>1:drop=0.1"; (* second override, one link *)
    ]
  in
  List.iter
    (fun text ->
      match Fault.Plan.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid plan %S" text)
    bad

let test_plan_validate_range_checks () =
  let p = plan_of "seed=1,crash=5@2+100" in
  Alcotest.(check bool) "fine without n" true
    (match Fault.Plan.validate p with () -> true);
  match Fault.Plan.validate ~n:3 p with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "crash node 5 accepted for n=3"

let test_plan_partition_window () =
  let p = plan_of "seed=1,part=100..400:0+2" in
  let cut ~now ~src ~dst = Fault.Plan.partitioned p ~now ~src ~dst in
  check Alcotest.bool "closed before window" false (cut ~now:99 ~src:0 ~dst:1);
  check Alcotest.bool "cut inside window" true (cut ~now:100 ~src:0 ~dst:1);
  check Alcotest.bool "cut is symmetric" true (cut ~now:250 ~src:1 ~dst:0);
  check Alcotest.bool "within-group traffic flows" false (cut ~now:250 ~src:0 ~dst:2);
  check Alcotest.bool "outside-group traffic flows" false (cut ~now:250 ~src:1 ~dst:3);
  check Alcotest.bool "healed at until_t" false (cut ~now:400 ~src:0 ~dst:1)

let test_plan_membership_events () =
  let p = plan_of "seed=7,join=4@250,leave=1@600,crash=0@5+300" in
  (match p.Fault.Plan.joins with
  | [ j ] ->
      check Alcotest.int "join node" 4 j.Fault.Plan.rnode;
      check Alcotest.int "join at" 250 j.Fault.Plan.at_ms
  | l -> Alcotest.failf "expected one join, got %d" (List.length l));
  (match p.Fault.Plan.leaves with
  | [ l ] ->
      check Alcotest.int "leave node" 1 l.Fault.Plan.rnode;
      check Alcotest.int "leave at" 600 l.Fault.Plan.at_ms
  | l -> Alcotest.failf "expected one leave, got %d" (List.length l));
  (* membership clauses survive the canonical round trip *)
  let rendered = Fault.Plan.to_string p in
  check Alcotest.string "fixed point" rendered
    (Fault.Plan.to_string (plan_of rendered));
  (* a joiner is outside the initial ring, so validate must accept node
     ids up to n (the post-join size), and reject nonsense *)
  Alcotest.(check bool) "join=n accepted" true
    (match Fault.Plan.validate ~n:5 p with () -> true);
  List.iter
    (fun text ->
      match Fault.Plan.parse text with
      | Error _ -> ()
      | Ok p -> (
          match Fault.Plan.validate ~n:3 p with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "accepted invalid membership plan %S" text))
    [
      "join=1@-5";            (* negative time *)
      "join=abc@10";          (* not a node id *)
      "join=1@10,join=1@20";  (* duplicate joiner *)
      "leave=9@10";           (* out of range for n=3 *)
    ]

let test_plan_link_seed_streams () =
  let p = plan_of "seed=7,drop=0.1" in
  check Alcotest.bool "per-link streams differ" true
    (Fault.Plan.link_seed p ~src:0 ~dst:1 <> Fault.Plan.link_seed p ~src:1 ~dst:0);
  check Alcotest.int "stream seed is a pure function"
    (Fault.Plan.link_seed p ~src:0 ~dst:1)
    (Fault.Plan.link_seed p ~src:0 ~dst:1);
  let p2 = plan_of "seed=8,drop=0.1" in
  check Alcotest.bool "plan seed feeds the stream" true
    (Fault.Plan.link_seed p ~src:0 ~dst:1 <> Fault.Plan.link_seed p2 ~src:0 ~dst:1)

(* --- message sequence charts ---------------------------------------------- *)

module Msc = Repro_msgpass.Msc

let traced_run () =
  let net = Net.create ~n:3 ~latency:(Latency.constant 4) ~seed:5 () in
  Net.set_tracing net true;
  Net.set_handler net 1 (fun e ->
      Net.send net ~src:1 ~dst:2 ~control_bytes:0 ~payload_bytes:0 e.Net.msg);
  Net.set_handler net 2 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0 "hello";
  Net.run net;
  Net.trace net

let test_msc_render () =
  let chart = Msc.render ~n_nodes:3 ~label:Fun.id (traced_run ()) in
  let lines = String.split_on_char '\n' chart |> List.filter (fun l -> l <> "") in
  (* header + two deliveries *)
  check Alcotest.int "rows" 3 (List.length lines);
  let second = List.nth lines 1 in
  check Alcotest.bool "time prefix" true (String.length second > 5 && String.sub second 0 4 = "t=4 ");
  check Alcotest.bool "rightward arrow" true (String.contains second '>');
  check Alcotest.bool "label present" true
    (let rec has i =
       i + 5 <= String.length second && (String.sub second i 5 = "hello" || has (i + 1))
     in
     has 0)

let test_msc_show_sends () =
  let chart = Msc.render ~show_sends:true ~n_nodes:3 ~label:Fun.id (traced_run ()) in
  let lines = String.split_on_char '\n' chart |> List.filter (fun l -> l <> "") in
  (* header + 2 sends + 2 deliveries *)
  check Alcotest.int "rows with sends" 5 (List.length lines)

let test_msc_summarize () =
  check
    Alcotest.(list (triple int int int))
    "traffic matrix"
    [ (0, 1, 1); (1, 2, 1) ]
    (Msc.summarize ~n_nodes:3 (traced_run ()))

(* --- fibers -------------------------------------------------------------- *)

let test_fiber_sequencing () =
  let net = make_net () in
  let log = ref [] in
  let schedule ~delay f = Net.at net ~delay f in
  Fiber.spawn ~schedule (fun () ->
      log := "a1" :: !log;
      Fiber.yield ();
      log := "a2" :: !log);
  Fiber.spawn ~schedule (fun () ->
      log := "b1" :: !log;
      Fiber.yield ();
      log := "b2" :: !log);
  Net.run net;
  check Alcotest.(list string) "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_fiber_await () =
  let net = make_net () in
  let schedule ~delay f = Net.at net ~delay f in
  let flag = ref false in
  let seen = ref (-1) in
  Net.at net ~delay:25 (fun () -> flag := true);
  Fiber.spawn ~schedule (fun () ->
      Fiber.await (fun () -> !flag);
      seen := Net.now net);
  Net.run net;
  check Alcotest.bool "waited for the flag" true (!seen >= 25)

let test_fiber_sleep () =
  let net = make_net () in
  let schedule ~delay f = Net.at net ~delay f in
  let woke = ref (-1) in
  Fiber.spawn ~schedule (fun () ->
      Fiber.sleep 42;
      woke := Net.now net);
  Net.run net;
  check Alcotest.int "slept" 42 !woke

let test_fiber_on_done () =
  let net = make_net () in
  let schedule ~delay f = Net.at net ~delay f in
  let finished = ref false in
  Fiber.spawn ~schedule ~on_done:(fun () -> finished := true) (fun () -> Fiber.yield ());
  Net.run net;
  check Alcotest.bool "on_done ran" true !finished

let test_fiber_poll_interval () =
  let net = make_net () in
  let schedule ~delay f = Net.at net ~delay f in
  let polls = ref 0 in
  let woke = ref (-1) in
  Fiber.spawn ~schedule ~poll_interval:10 (fun () ->
      Fiber.await (fun () ->
          incr polls;
          !polls > 3);
      woke := Net.now net);
  Net.run net;
  (* polls at t=0,10,20,30 -> condition true on the 4th check *)
  check Alcotest.int "time reflects poll spacing" 30 !woke

let () =
  Alcotest.run "repro_msgpass"
    [
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          test_latency_uniform_bounds;
          Alcotest.test_case "exponential capped" `Quick test_latency_exponential_capped;
          Alcotest.test_case "per link" `Quick test_latency_per_link;
          Alcotest.test_case "validation" `Quick test_latency_validation;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "self send is asynchronous" `Quick test_net_self_send;
          Alcotest.test_case "fifo per channel" `Quick test_net_fifo_per_channel;
          Alcotest.test_case "reorder fault breaks fifo" `Quick
            test_net_reorder_without_fifo;
          Alcotest.test_case "determinism" `Quick test_net_determinism;
          Alcotest.test_case "timer ordering" `Quick test_net_timer_ordering;
          Alcotest.test_case "timer negative delay" `Quick test_net_timer_negative;
          Alcotest.test_case "run_until" `Quick test_net_run_until;
          Alcotest.test_case "run_until budget" `Quick test_net_run_until_budget;
          Alcotest.test_case "packed key overflow" `Quick
            test_net_packed_key_overflow;
          Alcotest.test_case "step pops allocation-free" `Quick
            test_net_step_allocation;
          Alcotest.test_case "send allocates one envelope and one entry" `Quick
            test_net_send_allocation;
          Alcotest.test_case "drop faults" `Quick test_net_drop_faults;
          Alcotest.test_case "duplicate faults" `Quick test_net_duplicate_faults;
          Alcotest.test_case "stats accounting" `Quick test_net_stats_accounting;
          Alcotest.test_case "trace" `Quick test_net_trace;
          Alcotest.test_case "handler cascade" `Quick test_net_handler_cascade;
          Alcotest.test_case "livelock detection" `Quick test_net_livelock_detection;
          Alcotest.test_case "service time" `Quick test_net_service_time;
          Alcotest.test_case "service time validation" `Quick
            test_net_service_time_validation;
          Alcotest.test_case "bad endpoint" `Quick test_net_bad_endpoint;
        ] );
      ( "fault-plan",
        [
          Alcotest.test_case "parse fields" `Quick test_plan_parse_fields;
          Alcotest.test_case "to_string round-trips" `Quick
            test_plan_to_string_roundtrip;
          Alcotest.test_case "invalid plans rejected" `Quick test_plan_parse_rejects;
          Alcotest.test_case "clause kinds named" `Quick test_plan_clauses;
          Alcotest.test_case "validate range-checks nodes" `Quick
            test_plan_validate_range_checks;
          Alcotest.test_case "partition windows" `Quick test_plan_partition_window;
          Alcotest.test_case "membership events" `Quick
            test_plan_membership_events;
          Alcotest.test_case "per-link seed streams" `Quick
            test_plan_link_seed_streams;
        ] );
      ( "msc",
        [
          Alcotest.test_case "render" `Quick test_msc_render;
          Alcotest.test_case "show sends" `Quick test_msc_show_sends;
          Alcotest.test_case "summarize" `Quick test_msc_summarize;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "sequencing" `Quick test_fiber_sequencing;
          Alcotest.test_case "await" `Quick test_fiber_await;
          Alcotest.test_case "sleep" `Quick test_fiber_sleep;
          Alcotest.test_case "on_done" `Quick test_fiber_on_done;
          Alcotest.test_case "poll interval" `Quick test_fiber_poll_interval;
        ] );
    ]
