module Net = Repro_msgpass.Net
module Rng = Repro_util.Rng
module Ringbuf = Repro_util.Ringbuf

type config = {
  retransmit_after : int;
  backoff_max : int;
  jitter : int;
  seed : int;
  stable_acks : bool;
  ack_delay : int;
  coalesce : int;
}

let default =
  { retransmit_after = 40; backoff_max = 320; jitter = 10; seed = 0;
    stable_acks = false; ack_delay = 20; coalesce = 1 }

type 'msg wrapped =
  | Segs of { ack : int; segs : (int * int * int * 'msg) array }
  | Ack of { next : int }

(* Reliability bytes, in the same declared-size currency as the protocols'
   control bytes but accounted apart from them.  A data frame's header
   holds a base sequence number plus a cumulative-ack slot (used when an
   ack is piggybacked, zero extra bytes either way); each segment packed
   beyond the first adds a small length entry; a standalone ack frame is a
   cumulative counter. *)
let seg_header_bytes = 8

let ack_bytes = 8

let coal_entry_bytes = 2

type stats = {
  segs_sent : int;
  retransmits : int;
  acks_sent : int;
  acks_piggybacked : int;
  frames_sent : int;
  dups_suppressed : int;
  overhead_bytes : int;
}

type control = {
  stats : unit -> stats;
  mark_stable : unit -> unit;
  snapshot : unit -> string;
  restore : string -> unit;
  delivered : unit -> int;
}

(* What [snapshot] marshals: plain data only (window messages are protocol
   messages, plain data that every live protocol's codec also encodes). *)
type 'msg state =
  int array array
  * (int * int * int * 'msg) list array array
  * int array array
  * int array array
  * int array array
  * (int * int * int * int * int * int * int * int)
  * int array
  * int array

(* Lift a protocol message codec to the session's wire type, so the live
   backend can encode [wrapped] frames without Marshal.  Layout: tag byte
   (0 = Segs, 1 = Ack); Segs carries the piggybacked ack (i32, -1 when
   none), a u16 segment count, then per segment seq/control/payload (i32
   each) followed by the inner message; Ack carries its cumulative
   counter (i32). *)
let wrapped_codec (c : 'msg Codec.t) : 'msg wrapped Codec.t =
  let seg_fixed = 12 in
  {
    Codec.size =
      (function
      | Ack _ -> 5
      | Segs { segs; _ } ->
          Array.fold_left
            (fun a (_, _, _, msg) -> a + seg_fixed + c.Codec.size msg)
            7 segs);
    emit =
      (fun buf off msg ->
        match msg with
        | Ack { next } ->
            let off = Codec.put_u8 buf off 1 in
            Codec.put_i32 buf off next
        | Segs { ack; segs } ->
            let off = Codec.put_u8 buf off 0 in
            let off = Codec.put_i32 buf off ack in
            let off = Codec.put_u16 buf off (Array.length segs) in
            Array.fold_left
              (fun off (seq, cb, pb, m) ->
                let off = Codec.put_i32 buf off seq in
                let off = Codec.put_i32 buf off cb in
                let off = Codec.put_i32 buf off pb in
                c.Codec.emit buf off m)
              off segs);
    parse =
      (fun buf pos limit ->
        let tag, pos = Codec.get_u8 buf pos limit in
        match tag with
        | 1 ->
            let next, pos = Codec.get_i32 buf pos limit in
            (Ack { next }, pos)
        | 0 ->
            let ack, pos = Codec.get_i32 buf pos limit in
            let count, pos = Codec.get_u16 buf pos limit in
            let pos = ref pos in
            let segs =
              Array.init count (fun _ ->
                  let seq, p = Codec.get_i32 buf !pos limit in
                  let cb, p = Codec.get_i32 buf p limit in
                  let pb, p = Codec.get_i32 buf p limit in
                  if cb < 0 || pb < 0 then
                    raise (Codec.Bad "negative segment byte count");
                  let m, p = c.Codec.parse buf p limit in
                  pos := p;
                  (seq, cb, pb, m))
            in
            (Segs { ack; segs }, !pos)
        | k -> raise (Codec.Bad (Printf.sprintf "unknown session tag %d" k)));
  }

let wrap ?(config = default) (inner : Transport.factory) :
    Transport.factory * control =
  if config.retransmit_after < 1 then
    invalid_arg "Session.wrap: retransmit_after must be >= 1";
  if config.backoff_max < config.retransmit_after then
    invalid_arg "Session.wrap: backoff_max below retransmit_after";
  if config.ack_delay < 0 then invalid_arg "Session.wrap: negative ack_delay";
  if config.ack_delay >= config.retransmit_after then
    invalid_arg "Session.wrap: ack_delay must stay below retransmit_after";
  if config.coalesce < 1 then invalid_arg "Session.wrap: coalesce must be >= 1";
  let installed : control option ref = ref None in
  let the () =
    match !installed with
    | Some c -> c
    | None -> invalid_arg "Session: transport not created yet"
  in
  let control =
    {
      stats = (fun () -> (the ()).stats ());
      mark_stable = (fun () -> (the ()).mark_stable ());
      snapshot = (fun () -> (the ()).snapshot ());
      restore = (fun blob -> (the ()).restore blob);
      delivered = (fun () -> (the ()).delivered ());
    }
  in
  let factory =
    {
      Transport.create =
        (fun (type m) ?codec n : m Transport.t ->
          let wcodec = Option.map wrapped_codec codec in
          let tr : m wrapped Transport.t =
            inner.Transport.create ?codec:wcodec n
          in
          let handlers : (m Net.envelope -> unit) array =
            Array.make n (fun _ -> ())
          in
          (* go-back-N sender state per directed link *)
          let next_seq = Array.make_matrix n n 0 in
          let window : (int * int * int * m) Ringbuf.t array array =
            Array.init n (fun _ -> Array.init n (fun _ -> Ringbuf.create ()))
          in
          let timer_armed = Array.make_matrix n n false in
          let cur_timeout = Array.make_matrix n n config.retransmit_after in
          (* acks seen since the retransmit timer was last armed: a link
             whose window is advancing is healthy, and its timer restarts
             instead of go-back-N-replaying segments that aren't late *)
          let acked_since_arm = Array.make_matrix n n false in
          (* segments queued behind a pending flush (coalescing only);
             stored reversed, newest first *)
          let outq : (int * int * int * m) list array array =
            Array.make_matrix n n []
          in
          let flush_armed = Array.make_matrix n n false in
          (* receiver state per directed link (indexed receiver, sender) *)
          let expected = Array.make_matrix n n 0 in
          (* positions covered by the receiver's last checkpoint; in
             stable-acks mode acks advance only this floor, so peers keep
             retransmitting anything a crash could roll back *)
          let stable = Array.make_matrix n n 0 in
          (* a received segment owes the sender a cumulative ack: either
             piggybacked on the next data frame back, or — if the link
             stays idle for [ack_delay] — flushed as a standalone Ack *)
          let ack_pending = Array.make_matrix n n false in
          let ack_armed = Array.make_matrix n n false in
          let jitter_rng = Rng.create (config.seed lxor 0x5E55) in
          (* protocol-level accounting: first transmissions and in-order
             first deliveries only — the numbers the paper's experiments
             compare, unchanged by loss, retransmission or coalescing *)
          let sent = ref 0 and delivered = ref 0 in
          let ctl = ref 0 and pay = ref 0 in
          let per_node_sent = Array.make n 0 in
          let per_node_received = Array.make n 0 in
          (* reliability-layer accounting, reported separately *)
          let segs_count = ref 0 and retransmits = ref 0 and acks = ref 0 in
          let piggybacked = ref 0 and frames = ref 0 in
          let dups = ref 0 and overhead = ref 0 in
          let ack_value src dst =
            if config.stable_acks then stable.(src).(dst)
            else expected.(src).(dst)
          in
          (* one wire frame carrying [segs] (all fresh or all retransmit),
             with a cumulative ack piggybacked when one is owed *)
          let emit_data ~retransmit ~src ~dst segs =
            let k = Array.length segs in
            incr frames;
            segs_count := !segs_count + k;
            overhead := !overhead + seg_header_bytes + (coal_entry_bytes * (k - 1));
            let cb = ref 0 and pb = ref 0 in
            Array.iter
              (fun (_, c, p, _) ->
                cb := !cb + c;
                pb := !pb + p)
              segs;
            if retransmit then begin
              retransmits := !retransmits + k;
              overhead := !overhead + !cb + !pb
            end;
            let ack =
              if ack_pending.(src).(dst) then begin
                ack_pending.(src).(dst) <- false;
                incr piggybacked;
                ack_value src dst
              end
              else -1
            in
            tr.Transport.send ~src ~dst ~control_bytes:!cb ~payload_bytes:!pb
              (Segs { ack; segs })
          in
          let send_ack ~from_ ~to_ =
            incr acks;
            incr frames;
            overhead := !overhead + ack_bytes;
            tr.Transport.send ~src:from_ ~dst:to_ ~control_bytes:ack_bytes
              ~payload_bytes:0 (Ack { next = ack_value from_ to_ })
          in
          let ack_flush p s =
            if ack_pending.(p).(s) then begin
              ack_pending.(p).(s) <- false;
              send_ack ~from_:p ~to_:s
            end
          in
          let arm_ack p s =
            if config.ack_delay = 0 then ack_flush p s
            else if not ack_armed.(p).(s) then begin
              ack_armed.(p).(s) <- true;
              tr.Transport.schedule ~delay:config.ack_delay (fun () ->
                  ack_armed.(p).(s) <- false;
                  ack_flush p s)
            end
          in
          let chunked segs =
            (* split a segment run into frames of at most [coalesce] *)
            let total = Array.length segs in
            let rec go off acc =
              if off >= total then List.rev acc
              else
                let k = min config.coalesce (total - off) in
                go (off + k) (Array.sub segs off k :: acc)
            in
            go 0 []
          in
          let flush src dst =
            match outq.(src).(dst) with
            | [] -> ()
            | q ->
                outq.(src).(dst) <- [];
                let segs = Array.of_list (List.rev q) in
                List.iter (emit_data ~retransmit:false ~src ~dst) (chunked segs)
          in
          let rec arm src dst =
            if not timer_armed.(src).(dst) then begin
              timer_armed.(src).(dst) <- true;
              acked_since_arm.(src).(dst) <- false;
              let delay =
                cur_timeout.(src).(dst)
                + (if config.jitter > 0 then Rng.int jitter_rng (config.jitter + 1)
                   else 0)
              in
              tr.Transport.schedule ~delay (fun () ->
                  timer_armed.(src).(dst) <- false;
                  (* anything still queued goes out fresh first, so the
                     window replay below never double-sends it as new *)
                  flush src dst;
                  let w = window.(src).(dst) in
                  if not (Ringbuf.is_empty w) then
                    if acked_since_arm.(src).(dst) then
                      (* progress since arming: nothing in the window has
                         been outstanding for a full timeout yet *)
                      arm src dst
                    else begin
                      let segs = Array.of_list (Ringbuf.to_list w) in
                      List.iter
                        (emit_data ~retransmit:true ~src ~dst)
                        (chunked segs);
                      cur_timeout.(src).(dst) <-
                        min config.backoff_max (2 * cur_timeout.(src).(dst));
                      arm src dst
                    end)
            end
          in
          let prune_window p s next =
            let w = window.(p).(s) in
            let progressed = ref false in
            let rec prune () =
              match Ringbuf.peek_front w with
              | Some (seq, _, _, _) when seq < next ->
                  ignore (Ringbuf.pop_front w);
                  progressed := true;
                  prune ()
              | _ -> ()
            in
            prune ();
            if !progressed then begin
              cur_timeout.(p).(s) <- config.retransmit_after;
              acked_since_arm.(p).(s) <- true
            end
          in
          let on_wrapped p (env : m wrapped Net.envelope) =
            let s = env.Net.src in
            match env.Net.msg with
            | Segs { ack; segs } ->
                if ack >= 0 then prune_window p s ack;
                (* owe the sender a cumulative ack before delivering: a
                   synchronous protocol reply then carries it for free *)
                ack_pending.(p).(s) <- true;
                Array.iter
                  (fun (seq, cb, pb, msg) ->
                    if seq = expected.(p).(s) then begin
                      expected.(p).(s) <- seq + 1;
                      incr delivered;
                      per_node_received.(p) <- per_node_received.(p) + 1;
                      handlers.(p)
                        {
                          Net.src = s;
                          dst = env.Net.dst;
                          send_time = env.Net.send_time;
                          deliver_time = env.Net.deliver_time;
                          control_bytes = cb;
                          payload_bytes = pb;
                          msg;
                        }
                    end
                    else if seq < expected.(p).(s) then incr dups
                    (* out-of-order segments are discarded (go-back-N) *))
                  segs;
                (* still owed (no data went back): a standalone ack after
                   the idle delay covers every arrival cumulatively *)
                if ack_pending.(p).(s) then arm_ack p s
            | Ack { next } -> prune_window p s next
          in
          for p = 0 to n - 1 do
            tr.Transport.set_handler p (on_wrapped p)
          done;
          let session_stats () =
            {
              segs_sent = !segs_count;
              retransmits = !retransmits;
              acks_sent = !acks;
              acks_piggybacked = !piggybacked;
              frames_sent = !frames;
              dups_suppressed = !dups;
              overhead_bytes = !overhead;
            }
          in
          let snapshot () : string =
            (* flush queues are not part of the state: queued segments are
               already in their windows, and retransmission replays them *)
            let windows = Array.map (Array.map Ringbuf.to_list) window in
            let st : m state =
              ( next_seq, windows, cur_timeout, expected, stable,
                ( !sent, !delivered, !ctl, !pay, !segs_count, !retransmits,
                  !acks, !overhead ),
                per_node_sent, per_node_received )
            in
            Marshal.to_string (st, (!dups, !piggybacked, !frames)) []
          in
          let blit_matrix dst src =
            Array.iteri (fun i row -> Array.blit src.(i) 0 row 0 (Array.length row)) dst
          in
          let restore blob =
            let (st : m state), (dups', piggy', frames') =
              Marshal.from_string blob 0
            in
            let nq, windows, ct, ex, stb, counters, pns, pnr = st in
            let s, d, c, p, sg, rt, ak, ov = counters in
            blit_matrix next_seq nq;
            blit_matrix cur_timeout ct;
            blit_matrix expected ex;
            blit_matrix stable stb;
            Array.blit pns 0 per_node_sent 0 n;
            Array.blit pnr 0 per_node_received 0 n;
            sent := s; delivered := d; ctl := c; pay := p;
            segs_count := sg; retransmits := rt; acks := ak; overhead := ov;
            dups := dups';
            piggybacked := piggy';
            frames := frames';
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                let w = window.(i).(j) in
                Ringbuf.clear w;
                List.iter (Ringbuf.push_back w) windows.(i).(j);
                (* unacked segments survive the restart: resume their
                   retransmission cycle *)
                if not (Ringbuf.is_empty w) then arm i j
              done
            done
          in
          let mark_stable () =
            for i = 0 to n - 1 do
              Array.blit expected.(i) 0 stable.(i) 0 n
            done
          in
          installed :=
            Some
              {
                stats = session_stats;
                mark_stable;
                snapshot;
                restore;
                delivered = (fun () -> !delivered);
              };
          {
            Transport.n_nodes = n;
            scope = tr.Transport.scope;
            send =
              (fun ~src ~dst ~control_bytes ~payload_bytes msg ->
                let seq = next_seq.(src).(dst) in
                next_seq.(src).(dst) <- seq + 1;
                Ringbuf.push_back window.(src).(dst)
                  (seq, control_bytes, payload_bytes, msg);
                incr sent;
                ctl := !ctl + control_bytes;
                pay := !pay + payload_bytes;
                per_node_sent.(src) <- per_node_sent.(src) + 1;
                let seg = (seq, control_bytes, payload_bytes, msg) in
                if config.coalesce = 1 then
                  (* no flush budget: transmit synchronously, exactly the
                     uncoalesced wire behaviour *)
                  emit_data ~retransmit:false ~src ~dst [| seg |]
                else begin
                  outq.(src).(dst) <- seg :: outq.(src).(dst);
                  if not flush_armed.(src).(dst) then begin
                    flush_armed.(src).(dst) <- true;
                    tr.Transport.schedule ~delay:0 (fun () ->
                        flush_armed.(src).(dst) <- false;
                        flush src dst)
                  end
                end;
                arm src dst);
            set_handler = (fun node f -> handlers.(node) <- f);
            schedule = tr.Transport.schedule;
            step = tr.Transport.step;
            quiesce = tr.Transport.quiesce;
            now = tr.Transport.now;
            stats =
              (fun () ->
                let i = tr.Transport.stats () in
                {
                  Net.sent = !sent;
                  delivered = !delivered;
                  dropped = i.Net.dropped;
                  duplicated = i.Net.duplicated;
                  total_control_bytes = !ctl;
                  total_payload_bytes = !pay;
                  retransmits = !retransmits;
                  dups_suppressed = !dups;
                  reconnects = i.Net.reconnects;
                  overhead_bytes = !overhead + i.Net.overhead_bytes;
                  per_node_sent = Array.copy per_node_sent;
                  per_node_received = Array.copy per_node_received;
                });
            set_tracing = tr.Transport.set_tracing;
            trace =
              (fun () ->
                List.concat_map
                  (fun ev ->
                    let unwrap wrap_ev (env : m wrapped Net.envelope) =
                      match env.Net.msg with
                      | Segs { segs; _ } ->
                          Array.to_list segs
                          |> List.map (fun (_, cb, pb, msg) ->
                                 wrap_ev
                                   {
                                     Net.src = env.Net.src;
                                     dst = env.Net.dst;
                                     send_time = env.Net.send_time;
                                     deliver_time = env.Net.deliver_time;
                                     control_bytes = cb;
                                     payload_bytes = pb;
                                     msg;
                                   })
                      | Ack _ -> []
                    in
                    match ev with
                    | Net.Sent e -> unwrap (fun e -> Net.Sent e) e
                    | Net.Delivered e -> unwrap (fun e -> Net.Delivered e) e)
                  (tr.Transport.trace ()));
          });
    }
  in
  (factory, control)

let stack ?plan ~seed backend =
  let backend =
    match plan with
    | Some plan when not (Repro_msgpass.Fault.Plan.is_none plan) ->
        fst (Chaos.wrap ~plan backend)
    | _ -> backend
  in
  fst (wrap ~config:{ default with seed = seed + 1 } backend)
