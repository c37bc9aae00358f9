(* Binary codec tier: qcheck round-trips for every protocol codec (plus
   the session-wrapped lift and the membership tier's messages), strict
   rejection of truncated / corrupt / padded input, the Marshal
   cross-check oracle, the decoder buffer shrink-after-idle policy, and
   the allocation bounds the zero-copy hot path promises (emit into a
   pooled frame allocates nothing). *)

module Codec = Repro_transport.Codec
module Wire = Repro_transport.Wire
module Session = Repro_transport.Session
module Op = Repro_history.Op
module Pram_partial = Repro_core.Pram_partial
module Slow_partial = Repro_core.Slow_partial
module Causal_full = Repro_core.Causal_full
module Causal_partial = Repro_core.Causal_partial
module Causal_gossip = Repro_core.Causal_gossip
module Causal_adhoc = Repro_core.Causal_adhoc
module Causal_delta = Repro_core.Causal_delta
module Member = Repro_cluster.Member

let qcheck = QCheck_alcotest.to_alcotest

(* --- generators --------------------------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Op.Init;
        map (fun v -> Op.Val v) (oneof [ small_signed_int; int ]);
      ])

(* var / seq / writer ride i32 slots; the protocols only ever produce
   small non-negative ids, but the codec must hold anywhere in range *)
let i32_gen = QCheck.Gen.(int_range (-0x80000000) 0x7FFFFFFF)
let id_gen = QCheck.Gen.(oneof [ small_nat; i32_gen ])
let ts_gen = QCheck.Gen.(array_size (int_range 0 12) id_gen)

let pram_gen =
  QCheck.Gen.(
    map3
      (fun var value seq -> Pram_partial.Update { var; value; seq })
      id_gen value_gen id_gen)

let slow_gen =
  QCheck.Gen.(
    map3
      (fun var value lane_seq -> Slow_partial.Update { var; value; lane_seq })
      id_gen value_gen id_gen)

let causal_full_gen =
  QCheck.Gen.(
    map
      (fun (var, value, writer, ts) ->
        Causal_full.Update { var; value; writer; ts })
      (quad id_gen value_gen id_gen ts_gen))

let causal_partial_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (var, value, writer, ts) ->
            Causal_partial.Update { var; value; writer; ts })
          (quad id_gen value_gen id_gen ts_gen);
        map3
          (fun var writer ts -> Causal_partial.Meta { var; writer; ts })
          id_gen id_gen ts_gen;
      ])

let causal_gossip_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun ((var, value, writer), (seq, ts)) ->
            Causal_gossip.Update { var; value; writer; seq; ts })
          (pair (triple id_gen value_gen id_gen) (pair id_gen ts_gen));
        map
          (fun (var, writer, seq, ts) ->
            Causal_gossip.Gossip { var; writer; seq; ts })
          (quad id_gen id_gen id_gen ts_gen);
      ])

let causal_adhoc_gen =
  QCheck.Gen.(
    map
      (fun (var, value, writer, deps) ->
        Causal_adhoc.Update { var; value; writer; deps })
      (quad id_gen value_gen id_gen
         (list_size (int_range 0 10) (triple id_gen id_gen id_gen))))

let causal_delta_gen =
  QCheck.Gen.(
    map
      (fun (var, value, writer, deltas) ->
        Causal_delta.Update { var; value; writer; deltas })
      (quad id_gen value_gen id_gen
         (list_size (int_range 0 10) (pair id_gen id_gen))))

(* the membership tier's messages: var, wseq and epoch ride i32 slots,
   the value an i64 *)
let member_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun var wseq value -> Member.Update { var; wseq; value })
          id_gen id_gen int;
        map3
          (fun var wseq value -> Member.Migrate { var; wseq; value })
          id_gen id_gen int;
        map (fun epoch -> Member.Done { epoch }) id_gen;
        map (fun epoch -> Member.Pull { epoch }) id_gen;
      ])

(* --- round-trip + strictness, over every protocol codec ----------------------- *)

(* One qcheck property per codec:
   - the Marshal oracle accepts (encode → decode → images equal);
   - [encode] agrees with [size] (checked inside [encode]);
   - every strict prefix is rejected (all length fields encode in full
     before their elements, so truncation can never parse clean);
   - one trailing pad byte is rejected. *)
let roundtrip_strict (type m) name gen (c : m Codec.t) =
  qcheck
    (QCheck.Test.make ~name:(name ^ "_codec_roundtrip_strict") ~count:300
       (QCheck.make gen) (fun msg ->
         if not (Codec.roundtrip_ok c msg) then
           QCheck.Test.fail_report (name ^ ": Marshal oracle mismatch");
         let b = Codec.encode c msg in
         let n = Bytes.length b in
         if n <> c.Codec.size msg then
           QCheck.Test.fail_report (name ^ ": size disagrees with encode");
         for k = 0 to n - 1 do
           match Codec.decode c b ~pos:0 ~len:k with
           | _ ->
               QCheck.Test.fail_reportf "%s: %d-byte prefix of %d accepted"
                 name k n
           | exception Codec.Bad _ -> ()
         done;
         let padded = Bytes.make (n + 1) '\xff' in
         Bytes.blit b 0 padded 0 n;
         (match Codec.decode c padded ~pos:0 ~len:(n + 1) with
         | _ -> QCheck.Test.fail_report (name ^ ": trailing byte accepted")
         | exception Codec.Bad _ -> ());
         true))

let session_wrapped_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (ack, segs) ->
            let seq = ref 0 in
            Session.Segs
              {
                ack;
                segs =
                  Array.map
                    (fun (control, payload, msg) ->
                      incr seq;
                      (!seq, control, payload, msg))
                    segs;
              })
          (pair (int_range (-1) 1000)
             (array_size (int_range 1 6)
                (triple small_nat small_nat pram_gen)));
        map (fun next -> Session.Ack { next }) small_nat;
      ])

(* --- targeted corruption ------------------------------------------------------- *)

let check_bad name thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": corrupt input accepted")
  | exception Codec.Bad _ -> ()

let test_corrupt_tags () =
  let c = Pram_partial.codec in
  let msg = Pram_partial.Update { var = 1; value = Op.Val 5; seq = 2 } in
  let b = Codec.encode c msg in
  (* value tag rides after the 4-byte var: flip it to an unknown tag *)
  Bytes.set_uint8 b 4 7;
  check_bad "pram value tag" (fun () ->
      Codec.decode c b ~pos:0 ~len:(Bytes.length b));
  let pc = Causal_partial.codec in
  let pb =
    Codec.encode pc (Causal_partial.Meta { var = 0; writer = 1; ts = [| 4 |] })
  in
  Bytes.set_uint8 pb 0 255;
  check_bad "causal-partial variant tag" (fun () ->
      Codec.decode pc pb ~pos:0 ~len:(Bytes.length pb));
  let mb = Codec.encode Member.codec (Member.Pull { epoch = 3 }) in
  Bytes.set_uint8 mb 0 4;
  check_bad "member message tag" (fun () ->
      Codec.decode Member.codec mb ~pos:0 ~len:(Bytes.length mb))

let test_encode_range_checks () =
  let c = Pram_partial.codec in
  let too_big = Pram_partial.Update { var = 0x80000000; value = Op.Init; seq = 0 } in
  match Codec.encode c too_big with
  | _ -> Alcotest.fail "var beyond i32 must be an encoder error"
  | exception Invalid_argument _ -> ()

(* --- decoder shrink-after-idle ------------------------------------------------- *)

let feed_frame d (fr : Wire.frame) =
  let b = Wire.encode fr in
  Wire.feed d b (Bytes.length b);
  match Wire.next d with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "frame did not complete"
  | Error e -> Alcotest.fail e

let frame body =
  {
    Wire.kind = Wire.Data;
    src = 0;
    dst = 1;
    epoch = 0;
    control_bytes = 8;
    payload_bytes = 8;
    body;
  }

let test_decoder_shrinks_after_idle () =
  let d = Wire.decoder () in
  Alcotest.(check int) "starts at base" Wire.base_capacity (Wire.capacity d);
  (* a frame larger than the base capacity grows the buffer *)
  feed_frame d (frame (String.make (4 * Wire.base_capacity) 'x'));
  Alcotest.(check bool) "grown" true (Wire.capacity d > Wire.base_capacity);
  (* one small feed short of the policy: still grown *)
  for _ = 1 to Wire.shrink_after - 1 do
    feed_frame d (frame "tiny")
  done;
  Alcotest.(check bool) "not yet shrunk" true
    (Wire.capacity d > Wire.base_capacity);
  feed_frame d (frame "tiny");
  Alcotest.(check int) "compacted back to base" Wire.base_capacity
    (Wire.capacity d);
  (* a big frame mid-streak resets the countdown *)
  feed_frame d (frame (String.make (2 * Wire.base_capacity) 'y'));
  for _ = 1 to Wire.shrink_after - 1 do
    feed_frame d (frame "tiny")
  done;
  Alcotest.(check bool) "streak restarted by big frame" true
    (Wire.capacity d > Wire.base_capacity)

(* --- allocation regression ----------------------------------------------------- *)

(* Encoding into a caller buffer must not allocate: the whole point of
   the pooled-frame hot path is that steady state runs the minor heap
   flat.  Budgets are per op, with slack for the odd polling word. *)
let words_per_op f =
  let iters = 10_000 in
  for _ = 1 to 100 do f () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do f () done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_emit_allocates_nothing () =
  let buf = Bytes.create 1024 in
  let pram = Pram_partial.Update { var = 7; value = Op.Val 99; seq = 3 } in
  let w =
    words_per_op (fun () ->
        ignore (Pram_partial.codec.Codec.emit buf 0 pram : int))
  in
  if w > 0.5 then Alcotest.failf "pram emit allocates %.2f words/op" w;
  let causal =
    Causal_full.Update
      { var = 1; value = Op.Val 5; writer = 0; ts = [| 3; 1; 4; 1; 5 |] }
  in
  let w =
    words_per_op (fun () ->
        ignore (Causal_full.codec.Codec.emit buf 0 causal : int))
  in
  if w > 0.5 then Alcotest.failf "causal emit allocates %.2f words/op" w

let test_pooled_cycle_bounded () =
  let pool = Wire.Pool.create () in
  let msg = Pram_partial.Update { var = 7; value = Op.Val 99; seq = 3 } in
  let len = Pram_partial.codec.Codec.size msg in
  let w =
    words_per_op (fun () ->
        let b = Wire.Pool.acquire pool (Wire.body_offset + len) in
        ignore (Pram_partial.codec.Codec.emit b Wire.body_offset msg : int);
        Wire.set_header b ~kind:Wire.Data ~src:0 ~dst:1 ~control_bytes:8
          ~payload_bytes:8 ~body_len:len;
        Wire.Pool.release pool b)
  in
  (* freelist bookkeeping is a cons; a fresh 256 B frame would be 30+
     words per op and means the pool stopped recycling *)
  if w > 16.0 then Alcotest.failf "pooled cycle allocates %.2f words/op" w

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          roundtrip_strict "pram-partial" pram_gen Pram_partial.codec;
          roundtrip_strict "slow-partial" slow_gen Slow_partial.codec;
          roundtrip_strict "causal-full" causal_full_gen Causal_full.codec;
          roundtrip_strict "causal-partial" causal_partial_gen
            Causal_partial.codec;
          roundtrip_strict "causal-gossip" causal_gossip_gen Causal_gossip.codec;
          roundtrip_strict "causal-adhoc" causal_adhoc_gen Causal_adhoc.codec;
          roundtrip_strict "causal-delta" causal_delta_gen Causal_delta.codec;
          roundtrip_strict "session-wrapped" session_wrapped_gen
            (Session.wrapped_codec Pram_partial.codec);
          roundtrip_strict "member" member_gen Member.codec;
        ] );
      ( "strict",
        [
          Alcotest.test_case "unknown tags rejected" `Quick test_corrupt_tags;
          Alcotest.test_case "encoder range checks" `Quick
            test_encode_range_checks;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "buffer shrinks after idle streak" `Quick
            test_decoder_shrinks_after_idle;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "emit is allocation-free" `Quick
            test_emit_allocates_nothing;
          Alcotest.test_case "pooled frame cycle is bounded" `Quick
            test_pooled_cycle_bounded;
        ] );
    ]
