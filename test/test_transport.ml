(* Tests for Repro_transport: the wire codec (round-trip, rejection of
   corrupt frames, streaming reassembly) and the transport abstraction
   (fail-fast fault validation, sim-backend equivalence with the direct
   network construction). *)

module Wire = Repro_transport.Wire
module Control = Repro_transport.Control
module Transport = Repro_transport.Transport
module Live = Repro_transport.Live
module Fault = Repro_msgpass.Fault
module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution
module Registry = Repro_core.Registry
module Memory = Repro_core.Memory
module Workload = Repro_core.Workload
module History = Repro_history.History
module Rng = Repro_util.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- frame round-trip ------------------------------------------------------ *)

let frame_gen =
  QCheck.Gen.(
    let* kind =
      oneofl [ Wire.Data; Wire.Control; Wire.Creq; Wire.Cresp ]
    in
    let* src = int_bound 0xFFFF in
    let* dst = int_bound 0xFFFF in
    let* epoch = int_bound 0xFFFF in
    let* control_bytes = int_bound 1_000_000 in
    let* payload_bytes = int_bound 1_000_000 in
    let* body = string_size (int_bound 512) in
    return { Wire.kind; src; dst; epoch; control_bytes; payload_bytes; body })

let frame_print (f : Wire.frame) =
  Printf.sprintf "{kind=%s src=%d dst=%d epoch=%d cb=%d pb=%d body=%S}"
    (match f.kind with
    | Data -> "data"
    | Control -> "control"
    | Creq -> "creq"
    | Cresp -> "cresp")
    f.src f.dst f.epoch f.control_bytes f.payload_bytes f.body

let frame_arb = QCheck.make ~print:frame_print frame_gen

let test_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"wire_encode_decode_roundtrip" ~count:500 frame_arb
       (fun f -> Wire.of_bytes (Wire.encode f) = Ok f))

(* Protocol messages travel as marshalled bodies: a representative message
   value must survive encode -> decode -> unmarshal intact. *)
type fake_msg = Update of { var : int; value : int option; ts : int array }

let test_marshalled_message_roundtrip () =
  let msg = Update { var = 3; value = Some 42; ts = [| 7; 0; 9 |] } in
  let body = Marshal.to_string (123, msg) [] in
  let frame =
    { Wire.kind = Wire.Data; src = 1; dst = 2; epoch = 0; control_bytes = 24;
      payload_bytes = 8; body }
  in
  match Wire.of_bytes (Wire.encode frame) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok f ->
      let (stamp, (Update u as m)) : int * fake_msg =
        Marshal.from_string f.Wire.body 0
      in
      check Alcotest.int "stamp" 123 stamp;
      check Alcotest.int "var" 3 u.var;
      check Alcotest.bool "msg equal" true (m = msg)

(* --- rejection of corrupt input -------------------------------------------- *)

let encoded () =
  Wire.encode
    { Wire.kind = Wire.Data; src = 1; dst = 0; epoch = 3; control_bytes = 8;
      payload_bytes = 8; body = "payload" }

let expect_error name input =
  match Wire.of_bytes input with
  | Ok _ -> Alcotest.failf "%s: decoded a corrupt frame" name
  | Error _ -> ()

let test_truncated_rejected () =
  let buf = encoded () in
  for len = 0 to Bytes.length buf - 1 do
    expect_error "truncation" (Bytes.sub buf 0 len)
  done

let test_trailing_garbage_rejected () =
  let buf = encoded () in
  expect_error "trailing garbage" (Bytes.cat buf (Bytes.make 1 'x'))

let test_bad_magic_rejected () =
  let buf = encoded () in
  Bytes.set_uint8 buf 4 0x00;
  expect_error "bad magic" buf

let test_unknown_kind_rejected () =
  List.iter
    (fun k ->
      let buf = encoded () in
      Bytes.set_uint8 buf 5 k;
      expect_error (Printf.sprintf "unknown kind %d" k) buf)
    [ 2; 5; 6; 7; 8; 9; 10; 11 ]

let test_oversized_rejected () =
  let buf = encoded () in
  Bytes.set_int32_be buf 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  expect_error "oversized declared length" buf;
  let buf = encoded () in
  Bytes.set_int32_be buf 0 5l;
  (* below the fixed header size *)
  expect_error "undersized declared length" (Bytes.sub buf 0 9)

let test_negative_byte_count_rejected () =
  let buf = encoded () in
  Bytes.set_int32_be buf 12 (-1l);
  expect_error "negative control bytes" buf

let test_encode_validates () =
  let frame body src =
    { Wire.kind = Wire.Data; src; dst = 0; epoch = 0; control_bytes = 0;
      payload_bytes = 0; body }
  in
  (* validation lives in [set_header] now, shared with the zero-copy path *)
  Alcotest.check_raises "src out of range"
    (Invalid_argument "Wire.set_header: bad src") (fun () ->
      ignore (Wire.encode (frame "" 0x10000)));
  Alcotest.check_raises "body too large"
    (Invalid_argument "Wire.set_header: frame too large") (fun () ->
      ignore (Wire.encode (frame (String.make (Wire.max_frame_bytes + 1) 'x') 0)))

(* --- streaming decoder ------------------------------------------------------ *)

let test_streaming_reassembly =
  qcheck
    (QCheck.Test.make ~name:"wire_streaming_reassembly" ~count:100
       QCheck.(pair (list_of_size Gen.(int_range 1 8) frame_arb) (int_range 1 7))
       (fun (frames, chunk) ->
         let stream =
           Bytes.concat Bytes.empty (List.map Wire.encode frames)
         in
         let d = Wire.decoder () in
         let got = ref [] in
         let pos = ref 0 in
         let total = Bytes.length stream in
         let drain () =
           let rec go () =
             match Wire.next d with
             | Ok (Some f) ->
                 got := f :: !got;
                 go ()
             | Ok None -> ()
             | Error e -> Alcotest.failf "streaming decode error: %s" e
           in
           go ()
         in
         while !pos < total do
           let len = Stdlib.min chunk (total - !pos) in
           Wire.feed d (Bytes.sub stream !pos len) len;
           pos := !pos + len;
           drain ()
         done;
         List.rev !got = frames && Wire.pending d = 0))

let test_streaming_poisoned () =
  let d = Wire.decoder () in
  let buf = encoded () in
  Bytes.set_uint8 buf 4 0x00;
  Wire.feed d buf (Bytes.length buf);
  (match Wire.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt stream not detected");
  (* poisoned for good: feeding valid bytes afterwards must not recover *)
  let ok = encoded () in
  Wire.feed d ok (Bytes.length ok);
  match Wire.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered from poison"

(* --- client RPC codec -------------------------------------------------------- *)

module Rpc = Repro_transport.Rpc

let rpc_op_gen =
  QCheck.Gen.(
    let* var = int_bound 1_000_000 in
    oneof
      [
        return (Rpc.Read { var });
        (let* value = int in
         return (Rpc.Write { var; value }));
      ])

let rpc_request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun op -> Rpc.Op op) rpc_op_gen;
        map (fun ops -> Rpc.Batch (Array.of_list ops))
          (list_size (int_bound 20) rpc_op_gen);
      ])

let rpc_request_print (id, req) =
  let op_str = function
    | Rpc.Read { var } -> Printf.sprintf "R x%d" var
    | Rpc.Write { var; value } -> Printf.sprintf "W x%d=%d" var value
  in
  Printf.sprintf "#%d %s" id
    (match req with
    | Rpc.Op op -> op_str op
    | Rpc.Batch ops ->
        "[" ^ String.concat "; " (Array.to_list (Array.map op_str ops)) ^ "]")

let test_rpc_request_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"rpc_request_roundtrip" ~count:500
       (QCheck.make ~print:rpc_request_print
          QCheck.Gen.(pair (int_bound 0x7FFFFFFF) rpc_request_gen))
       (fun (id, req) ->
         Rpc.decode_request (Rpc.encode_request ~id req) = Ok (id, req)))

let rpc_outcome_gen =
  QCheck.Gen.(
    oneof
      [
        return (Rpc.Got None);
        map (fun v -> Rpc.Got (Some v)) int;
        return Rpc.Stored;
        map (fun s -> Rpc.Failed s) (string_size (int_bound 80));
      ])

let test_rpc_response_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"rpc_response_roundtrip" ~count:500
       (QCheck.make
          QCheck.Gen.(
            pair (int_bound 0x7FFFFFFF)
              (map Array.of_list (list_size (int_bound 20) rpc_outcome_gen))))
       (fun (id, outcomes) ->
         Rpc.decode_response (Rpc.encode_response ~id outcomes)
         = Ok (id, outcomes)))

let test_rpc_truncation_rejected () =
  let reqs =
    [
      Rpc.Op (Rpc.Read { var = 7 });
      Rpc.Op (Rpc.Write { var = 3; value = -12345 });
      Rpc.Batch
        [| Rpc.Read { var = 0 }; Rpc.Write { var = 1; value = 99 };
           Rpc.Read { var = 2 } |];
    ]
  in
  List.iter
    (fun req ->
      let body = Rpc.encode_request ~id:42 req in
      for len = 0 to String.length body - 1 do
        match Rpc.decode_request (String.sub body 0 len) with
        | Ok _ -> Alcotest.failf "decoded a %d-byte truncation" len
        | Error _ -> ()
      done;
      match Rpc.decode_request (body ^ "\x00") with
      | Ok _ -> Alcotest.fail "decoded trailing garbage"
      | Error _ -> ())
    reqs;
  let resp = Rpc.encode_response ~id:7 [| Rpc.Got (Some 5); Rpc.Stored |] in
  for len = 0 to String.length resp - 1 do
    match Rpc.decode_response (String.sub resp 0 len) with
    | Ok _ -> Alcotest.failf "decoded a %d-byte response truncation" len
    | Error _ -> ()
  done

let test_rpc_corrupt_tags_rejected () =
  (* unknown request tag *)
  let body = Bytes.of_string (Rpc.encode_request ~id:1 (Rpc.Op (Rpc.Read { var = 0 }))) in
  Bytes.set_uint8 body 4 9;
  (match Rpc.decode_request (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded unknown request tag"
  | Error _ -> ());
  (* unknown op tag inside a batch *)
  let body =
    Bytes.of_string
      (Rpc.encode_request ~id:1 (Rpc.Batch [| Rpc.Read { var = 0 } |]))
  in
  Bytes.set_uint8 body 7 9;
  (match Rpc.decode_request (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded unknown op tag"
  | Error _ -> ());
  (* negative request id *)
  let body = Bytes.of_string (Rpc.encode_request ~id:1 (Rpc.Op (Rpc.Read { var = 0 }))) in
  Bytes.set_int32_be body 0 (-1l);
  (match Rpc.decode_request (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded negative id"
  | Error _ -> ());
  (* unknown outcome tag *)
  let body = Bytes.of_string (Rpc.encode_response ~id:1 [| Rpc.Stored |]) in
  Bytes.set_uint8 body 6 9;
  match Rpc.decode_response (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded unknown outcome tag"
  | Error _ -> ()

(* --- transport construction -------------------------------------------------- *)

let test_chaos_rejects_bad_plan () =
  (* a bad fault probability must be rejected when the stack is
     configured, before any network exists or any message is sent *)
  let plan =
    { Fault.Plan.none with
      default_link = { Fault.Plan.clean with drop = 1.5 } }
  in
  let backend = Transport.sim ~latency:Latency.lan ~seed:1 () in
  match Repro_transport.Chaos.wrap ~plan backend with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Chaos.wrap accepted drop probability 1.5"

(* The default (no-factory) path and an explicit Transport.sim factory must
   produce byte-identical runs: same history, same accounting. *)
let test_sim_factory_equivalence () =
  let spec = Option.get (Registry.find "causal-partial") in
  let dist =
    Distribution.random (Rng.create 5) ~n_procs:4 ~n_vars:8 ~replicas_per_var:3
  in
  let seed = 42 in
  let run memory =
    let h = Workload.run_random ~seed:(seed + 1) memory in
    (History.to_string h, (memory.Memory.metrics ()).Memory.control_bytes)
  in
  let direct = run (spec.Registry.make ~dist ~seed ()) in
  let via_factory =
    run
      (spec.Registry.make
         ~transport:(Transport.sim ~latency:Latency.lan ~seed ())
         ~dist ~seed ())
  in
  check Alcotest.(pair string int) "identical run" direct via_factory

(* --- chaos + session stack --------------------------------------------------- *)

module Chaos = Repro_transport.Chaos
module Session = Repro_transport.Session

let plan_of text =
  match Fault.Plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

(* The same stack a live node runs, on the sim backend: backend -> chaos ->
   session.  Returns the reliable factory plus both control handles. *)
let chaos_stack ?(config = Session.default) ~plan ~seed () =
  let base = Transport.sim ~latency:(Latency.constant 3) ~seed () in
  let chaotic, cctl = Chaos.wrap ~plan base in
  let reliable, sctl =
    Session.wrap ~config:{ config with Session.seed = seed + 1 } chaotic
  in
  (reliable, cctl, sctl)

let drive ?config ~plan ~seed ~count () =
  let reliable, cctl, sctl = chaos_stack ?config ~plan ~seed () in
  let t = reliable.Transport.create 2 in
  let got = ref [] in
  t.Transport.set_handler 1 (fun e ->
      got := (e.Repro_msgpass.Net.msg, t.Transport.now ()) :: !got);
  for k = 1 to count do
    t.Transport.send ~src:0 ~dst:1 ~control_bytes:4 ~payload_bytes:0 k
  done;
  t.Transport.quiesce ();
  (List.rev !got, t.Transport.stats (), cctl.Chaos.stats (), sctl.Session.stats ())

(* The session-layer guarantee: over any finite-probability mix of drops,
   duplications and reorder delays, the receiver sees exactly the sent
   sequence, once each, in order — and the outer stats still count first
   transmissions only, so protocol-level accounting is chaos-invariant. *)
let test_session_exactly_once_in_order =
  qcheck
    (QCheck.Test.make ~name:"session_exactly_once_in_order" ~count:40
       QCheck.(
         quad (int_bound 40) (int_bound 40) (int_bound 40) (int_bound 1000))
       (fun (d, u, r, seed) ->
         let plan =
           plan_of
             (Printf.sprintf "seed=%d,drop=0.%02d,dup=0.%02d,reorder=0.%02d"
                (seed + 1) d u r)
         in
         let count = 25 in
         let got, stats, _, _ = drive ~plan ~seed ~count () in
         List.map fst got = List.init count (fun i -> i + 1)
         && stats.Repro_msgpass.Net.sent = count
         && stats.Repro_msgpass.Net.delivered = count
         && stats.Repro_msgpass.Net.total_control_bytes = 4 * count))

let test_chaos_stack_deterministic () =
  (* one plan, one seed: bit-identical delivery trace and counters, run
     after run — the property that makes a chaos experiment replayable *)
  let run () =
    let plan = plan_of "seed=9,drop=0.2,dup=0.1,reorder=0.3" in
    let got, _, c, s = drive ~plan ~seed:4 ~count:20 () in
    (got, c.Chaos.drops, c.Chaos.duplicates, s.Session.retransmits,
     s.Session.overhead_bytes)
  in
  let g1, d1, u1, r1, o1 = run () in
  let g2, d2, u2, r2, o2 = run () in
  check Alcotest.(list (pair int int)) "delivery trace reproducible" g1 g2;
  check Alcotest.int "drops reproducible" d1 d2;
  check Alcotest.int "duplicates reproducible" u1 u2;
  check Alcotest.int "retransmits reproducible" r1 r2;
  check Alcotest.int "overhead reproducible" o1 o2;
  check Alcotest.bool "the plan actually bit" true (d1 > 0 && r1 > 0)

let test_session_overhead_accounting () =
  (* on a clean link the session layer's cost is pure bookkeeping: segment
     headers plus acks, no retransmissions, no suppressed duplicates *)
  let got, stats, _, s = drive ~plan:Fault.Plan.none ~seed:2 ~count:10 () in
  check Alcotest.int "all delivered" 10 (List.length got);
  check Alcotest.int "no retransmits" 0 s.Session.retransmits;
  check Alcotest.int "no dups suppressed" 0 s.Session.dups_suppressed;
  check Alcotest.int "overhead = headers + acks"
    ((10 * Session.seg_header_bytes) + (s.Session.acks_sent * Session.ack_bytes))
    s.Session.overhead_bytes;
  check Alcotest.int "protocol lane untouched" 40
    stats.Repro_msgpass.Net.total_control_bytes

(* Acks ride on reverse-direction data segments for free (the segment
   header reserves the slot); a standalone Ack frame is the idle-link
   fallback.  Request/reply traffic must therefore piggyback. *)
let test_session_ack_piggyback () =
  let reliable, _, sctl = chaos_stack ~plan:Fault.Plan.none ~seed:3 () in
  let t = reliable.Transport.create 2 in
  t.Transport.set_handler 0 (fun _ -> ());
  t.Transport.set_handler 1 (fun e ->
      (* synchronous reply, exactly the front-door shape *)
      t.Transport.send ~src:1 ~dst:0 ~control_bytes:4 ~payload_bytes:0
        (1000 + e.Repro_msgpass.Net.msg));
  for k = 1 to 10 do
    t.Transport.send ~src:0 ~dst:1 ~control_bytes:4 ~payload_bytes:0 k
  done;
  t.Transport.quiesce ();
  let s = sctl.Session.stats () in
  check Alcotest.int "all delivered" 20
    (t.Transport.stats ()).Repro_msgpass.Net.delivered;
  check Alcotest.bool "acks piggybacked" true (s.Session.acks_piggybacked > 0);
  (* every piggybacked ack is a standalone Ack frame (and its bytes) saved *)
  check Alcotest.int "overhead = headers + standalone acks only"
    ((s.Session.segs_sent * Session.seg_header_bytes)
    + (s.Session.acks_sent * Session.ack_bytes))
    s.Session.overhead_bytes

(* Coalescing is invisible to the protocol lane: same deliveries in the
   same order, same first-transmission accounting — only the overhead
   lane (frames, headers, standalone acks) shrinks. *)
let test_coalescing_equivalence () =
  let run coalesce plan =
    let got, stats, _, s =
      drive
        ~config:{ Session.default with Session.coalesce }
        ~plan ~seed:11 ~count:30 ()
    in
    (List.map fst got, stats, s)
  in
  (* clean link: strict frame/overhead reduction *)
  let g1, st1, s1 = run 1 Fault.Plan.none in
  let g8, st8, s8 = run 8 Fault.Plan.none in
  check Alcotest.(list int) "same deliveries (clean)" g1 g8;
  check Alcotest.int "same msgs sent" st1.Repro_msgpass.Net.sent
    st8.Repro_msgpass.Net.sent;
  check Alcotest.int "same control bytes" st1.Repro_msgpass.Net.total_control_bytes
    st8.Repro_msgpass.Net.total_control_bytes;
  check Alcotest.int "same payload bytes" st1.Repro_msgpass.Net.total_payload_bytes
    st8.Repro_msgpass.Net.total_payload_bytes;
  check Alcotest.bool "fewer frames" true
    (s8.Session.frames_sent < s1.Session.frames_sent);
  check Alcotest.bool "less overhead" true
    (s8.Session.overhead_bytes < s1.Session.overhead_bytes);
  check Alcotest.int "same segments" s1.Session.segs_sent s8.Session.segs_sent;
  (* chaotic link: exactly-once in-order delivery and protocol accounting
     still agree across budgets *)
  let plan = plan_of "seed=7,drop=0.15,dup=0.05,reorder=0.2" in
  let g1, st1, _ = run 1 plan in
  let g8, st8, _ = run 8 plan in
  check Alcotest.(list int) "same deliveries (chaos)" g1 g8;
  check Alcotest.int "same msgs sent (chaos)" st1.Repro_msgpass.Net.sent
    st8.Repro_msgpass.Net.sent;
  check Alcotest.int "same control bytes (chaos)"
    st1.Repro_msgpass.Net.total_control_bytes
    st8.Repro_msgpass.Net.total_control_bytes

(* --- epoch fence at the live seam ------------------------------------------ *)

(* an int rides a [Data] body as one i32: enough to tell messages apart *)
let int_codec : int Repro_transport.Codec.t =
  Repro_transport.Codec.
    { size = (fun _ -> 4); emit = put_i32; parse = get_i32 }

(* Two real Live endpoints over loopback (the peer forked, as in the
   cluster harness).  The peer sends a [Data] message while still at
   epoch 0 after this node has committed epoch 2 — the fence must drop
   and count it.  A supervisor-style [Control Ping] at epoch 0, written
   on a raw dialed socket as the supervisor writes it, crosses freely
   (control messages are how nodes learn of a newer epoch), and a
   message sent once the peer is at the current epoch is delivered. *)
let test_epoch_fence () =
  let fd0 = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let fd1 = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let peers = [| Live.listen_addr fd0; Live.listen_addr fd1 |] in
  let config self =
    {
      Live.self;
      n = 2;
      peers;
      fingerprint = "epoch-fence-test";
      resilient = false;
      incarnation = 0;
    }
  in
  match Unix.fork () with
  | 0 ->
      (* the stale peer: node 1 sends while still at epoch 0 *)
      let code =
        try
          Unix.close fd0;
          let t = Live.create (config 1) ~listen_fd:fd1 in
          let tr = (Live.factory t).Transport.create ~codec:int_codec 2 in
          let send m =
            tr.Transport.send ~src:1 ~dst:0 ~control_bytes:8 ~payload_bytes:0 m
          in
          Live.wait_peers t ~timeout_ms:5_000;
          (* let the parent raise its epoch first *)
          Unix.sleepf 0.3;
          send 1;
          let ctl = Unix.socket PF_INET SOCK_STREAM 0 in
          Unix.connect ctl peers.(0);
          let ping = Control.frame ~src:Control.supervisor ~dst:0 Control.Ping in
          ignore (Unix.write ctl ping 0 (Bytes.length ping) : int);
          Live.set_epoch t 2;
          send 2;
          let deadline = Live.now_ms t + 1_000 in
          while Live.now_ms t < deadline do
            ignore (Live.step t ~block:true)
          done;
          Unix.close ctl;
          Live.close t;
          0
        with _ -> 1
      in
      Unix._exit code
  | child ->
      Unix.close fd1;
      let t = Live.create (config 0) ~listen_fd:fd0 in
      let tr = (Live.factory t).Transport.create ~codec:int_codec 2 in
      let delivered = ref [] and pinged = ref false in
      tr.Transport.set_handler 0 (fun e ->
          delivered := e.Repro_msgpass.Net.msg :: !delivered);
      Live.set_control_handler t (fun ~reply:_ m ->
          if m = Control.Ping then pinged := true);
      Live.wait_peers t ~timeout_ms:5_000;
      Live.set_epoch t 2;
      let deadline = Live.now_ms t + 5_000 in
      while
        not (!pinged && List.mem 2 !delivered) && Live.now_ms t < deadline
      do
        ignore (Live.step t ~block:true)
      done;
      check Alcotest.bool "supervisor ping crossed the fence" true !pinged;
      check Alcotest.bool "current-epoch message delivered" true
        (List.mem 2 !delivered);
      check Alcotest.bool "stale message never delivered" false
        (List.mem 1 !delivered);
      check Alcotest.int "stale frame counted" 1 (Live.stale_epochs t);
      Live.close t;
      let _, status = Unix.waitpid [] child in
      check Alcotest.bool "peer exited cleanly" true
        (status = Unix.WEXITED 0)

(* The supervisor's heartbeat is not the cluster's traffic: a peer that
   writes a [Control Ping] every 20 ms, each answered with a [Pong], must
   not hold a drain open, so [drain ~quiet_ms:100] returns long before
   its 3 s cap. *)
let test_heartbeat_not_activity () =
  let fd = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let addr = Live.listen_addr fd in
  match Unix.fork () with
  | 0 ->
      (* the pinger, on a control connection as the supervisor dials it *)
      (try
         Unix.close fd;
         let ctl = Unix.socket PF_INET SOCK_STREAM 0 in
         Unix.connect ctl addr;
         let ping = Control.frame ~src:Control.supervisor ~dst:0 Control.Ping in
         for _ = 1 to 250 do
           ignore (Unix.write ctl ping 0 (Bytes.length ping) : int);
           Unix.sleepf 0.02
         done
       with _ -> ());
      Unix._exit 0
  | child ->
      let t =
        Live.create
          {
            Live.self = 0;
            n = 1;
            peers = [| addr |];
            fingerprint = "heartbeat-test";
            resilient = false;
            incarnation = 0;
          }
          ~listen_fd:fd
      in
      let pings = ref 0 in
      Live.set_control_handler t (fun ~reply m ->
          if m = Control.Ping then begin
            incr pings;
            reply
              (Control.Pong { epoch = 0; proposed = 0; ready = false; writes = 0 })
          end);
      let deadline = Live.now_ms t + 5_000 in
      while !pings = 0 && Live.now_ms t < deadline do
        ignore (Live.step t ~block:true)
      done;
      let before = !pings and t0 = Unix.gettimeofday () in
      Live.drain t ~quiet_ms:100 ~max_ms:3_000;
      let took = Unix.gettimeofday () -. t0 and during = !pings - before in
      Live.close t;
      Unix.kill child Sys.sigkill;
      ignore (Unix.waitpid [] child);
      check Alcotest.bool
        (Printf.sprintf "%d pings arrived during the drain" during)
        true (during >= 2);
      check Alcotest.bool
        (Printf.sprintf "drain went quiet in %.2f s < 1.5 s" took)
        true (took < 1.5)

(* The live backend encodes every [Data] body with the protocol's codec: a
   codec-less [create] is refused, and every non-blocking registry protocol
   (the ones a live node runs) brings its codec to a fresh factory.  No
   peer is dialled, so nothing crosses a socket. *)
let test_live_factory_needs_codec () =
  let live () =
    let fd = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
    Live.create
      {
        Live.self = 0;
        n = 4;
        peers = Array.make 4 (Live.listen_addr fd);
        fingerprint = "codec-test";
        resilient = false;
        incarnation = 0;
      }
      ~listen_fd:fd
  in
  let t = live () in
  (match ((Live.factory t).Transport.create 4 : unit Transport.t) with
  | _ -> Alcotest.fail "codec-less Live transport built"
  | exception Invalid_argument _ -> ());
  Live.close t;
  List.iter
    (fun (spec : Registry.spec) ->
      if not spec.Registry.blocking then begin
        let t = live () in
        ignore
          (spec.Registry.make ~transport:(Live.factory t)
             ~dist:(Distribution.full ~n_procs:4 ~n_vars:2)
             ~seed:1 ()
            : Memory.t);
        Live.close t
      end)
    Registry.all

let () =
  Alcotest.run "repro_transport"
    [
      ( "wire",
        [
          test_roundtrip;
          Alcotest.test_case "marshalled message round-trip" `Quick
            test_marshalled_message_roundtrip;
          Alcotest.test_case "truncated rejected" `Quick test_truncated_rejected;
          Alcotest.test_case "trailing garbage rejected" `Quick
            test_trailing_garbage_rejected;
          Alcotest.test_case "bad magic rejected" `Quick test_bad_magic_rejected;
          Alcotest.test_case "unknown kind rejected" `Quick
            test_unknown_kind_rejected;
          Alcotest.test_case "oversized/undersized rejected" `Quick
            test_oversized_rejected;
          Alcotest.test_case "negative byte count rejected" `Quick
            test_negative_byte_count_rejected;
          Alcotest.test_case "encode validates" `Quick test_encode_validates;
          test_streaming_reassembly;
          Alcotest.test_case "poisoned decoder stays poisoned" `Quick
            test_streaming_poisoned;
        ] );
      ( "rpc",
        [
          test_rpc_request_roundtrip;
          test_rpc_response_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick
            test_rpc_truncation_rejected;
          Alcotest.test_case "corrupt tags rejected" `Quick
            test_rpc_corrupt_tags_rejected;
        ] );
      ( "transport",
        [
          Alcotest.test_case "Chaos.wrap rejects bad drop at setup" `Quick
            test_chaos_rejects_bad_plan;
          Alcotest.test_case "sim factory equals direct construction" `Quick
            test_sim_factory_equivalence;
        ] );
      ( "live",
        [
          Alcotest.test_case "epoch fence at the seam" `Quick test_epoch_fence;
          Alcotest.test_case "heartbeats do not hold a drain open" `Quick
            test_heartbeat_not_activity;
          Alcotest.test_case "factory requires a codec" `Quick
            test_live_factory_needs_codec;
        ] );
      ( "session",
        [
          test_session_exactly_once_in_order;
          Alcotest.test_case "chaos stack is deterministic" `Quick
            test_chaos_stack_deterministic;
          Alcotest.test_case "overhead accounted apart" `Quick
            test_session_overhead_accounting;
          Alcotest.test_case "acks piggyback on replies" `Quick
            test_session_ack_piggyback;
          Alcotest.test_case "coalescing equivalence" `Quick
            test_coalescing_equivalence;
        ] );
    ]
