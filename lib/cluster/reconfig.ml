module Control = Repro_transport.Control
module Fault = Repro_msgpass.Fault
module Ring = Repro_sharegraph.Ring
module History = Repro_history.History
module Checker = Repro_history.Checker
module Fsio = Repro_durable.Fsio
module Record = Repro_util.Record

type event = {
  ev_epoch : int;
  ev_kind : string;
  ev_node : int;
  ev_members : int list;
  ev_keys_moved : int;
  ev_rebalance_ms : int;
}

type outcome = {
  n : int;
  k : int;
  vnodes : int;
  seed : int;
  n_vars : int;
  committed_epoch : int;
  members : int list;
  events : event list;
  history : History.t;
  verdict : Checker.verdict;
  pram : Checker.verdict;
  stale_epochs : int;
  restarts : int;
  salvaged : int list;
  keys_moved_total : int;
  max_keys_moved : int;
  moved_gate : int;
  moved_ok : bool;
  unavail_ms : int;
  transfers : int;
  init_fallbacks : int;
  writes_total : int;
  reads_total : int;
  node_results : Member.result array;
  chaos : string;
  wall_ms : int;
}

(* --- control-plane bookkeeping -------------------------------------------- *)

(* What the supervisor knows of one node from its heartbeat. *)
type ctl = {
  node : int;
  (* latest pong *)
  mutable p_at : float;  (** 0. until the first pong *)
  mutable p_epoch : int;
  mutable p_proposed : int;
  mutable p_ready : bool;
  mutable p_writes : int;
  mutable catchup_at : float;
  mutable p_pings : int;
      (** pings sent since the last pong: the silence detector only fires
          after enough probes were actually delivered attempts, so a
          starved supervisor cannot blame a node it never probed *)
}

type pending = {
  pd_epoch : int;
  pd_members : int list;
  pd_down : int list;
  pd_kind : string;
  pd_node : int;
  pd_keys_moved : int;
  pd_proposed_at : float;
  mutable pd_rebroadcast_at : float;
      (** while the commit is outstanding, the whole proposal is re-sent
          to every proposed member on this cadence — a lost frame or a
          node that was mid-restart cannot stall the epoch forever *)
}

let proposal p =
  Control.Propose { epoch = p.pd_epoch; members = p.pd_members; down = p.pd_down }

let ints_to_string is = String.concat "," (List.map string_of_int is)

let run ~n ~k ~vnodes ~n_vars ~seed ?(writes = 40) ?deadline_ms
    ?(demote_after_ms = 2_500) ?chaos ?wal_dir () : (outcome, string) result =
  let t_start = Unix.gettimeofday () in
  let ( let* ) = Result.bind in
  (* member traffic bypasses Chaos: link faults and partitions would be
     parsed and then silently ignored *)
  let* chaos =
    Fault.Plan.check ~n ~runtime:"reconfig"
      ~rejects:[ "drop"; "dup"; "reorder"; "delay"; "link"; "part" ]
      chaos
  in
  let joiners =
    match chaos with
    | None -> []
    | Some p -> List.map (fun r -> r.Fault.Plan.rnode) p.Fault.Plan.joins
  in
  let initial_members =
    List.filter (fun p -> not (List.mem p joiners)) (List.init n Fun.id)
  in
  if n < 1 || n > 0x7FFF then Error "reconfig: n out of range"
  else if initial_members = [] then
    Error "reconfig: every node is a scheduled joiner"
  else if k < 1 then Error "reconfig: k must be >= 1"
  else
    try
      let listeners, peers = Supervisor.loopback n in
      let wal_root, dispose_wal =
        Fsio.scratch_dir ?keep:wal_dir "repro-reconfig"
      in
      let node_wal self =
        Filename.concat wal_root (Printf.sprintf "node-%d.wal" self)
      in
      let ctls =
        Array.init n (fun node ->
            {
              node;
              p_at = 0.;
              p_epoch = 0;
              p_proposed = 0;
              p_ready = false;
              p_writes = 0;
              catchup_at = 0.;
              p_pings = 0;
            })
      in
      let sup =
        Supervisor.create
          ~deadline_ms:
            (* the members' 60 s run timeout plus 30 s *)
            (Option.value deadline_ms ~default:90_000)
          ?chaos
          ~on_respawn:(fun self ->
            (* grace until the respawn's first pong: recovery time must
               not count as silence *)
            ctls.(self).p_at <- 0.;
            ctls.(self).p_pings <- 0)
          ~on_control:(fun node -> function
            | Control.Pong { epoch; proposed; ready; writes } ->
                let c = ctls.(node) in
                c.p_epoch <- epoch;
                c.p_proposed <- proposed;
                c.p_ready <- ready;
                c.p_writes <- writes;
                c.p_at <- Unix.gettimeofday ();
                c.p_pings <- 0
            | _ -> ())
          ()
      in
      for self = 0 to n - 1 do
        Supervisor.spawn_node sup listeners ~self (fun ~incarnation ->
            Member.run
              {
                Member.self;
                n;
                listen_fd = listeners.(self);
                peers;
                seed;
                k;
                vnodes;
                n_vars;
                initial_members;
                writes_target = writes;
                chaos;
                wal_dir = Some (node_wal self);
                incarnation;
              })
      done;
      let committed_epoch = ref 0 in
      let members = ref initial_members in
      let send c m = ignore (Supervisor.send sup ~node:c.node m : bool) in
      let broadcast m = Array.iter (fun c -> send c m) ctls in
      let pending : pending option ref = ref None in
      let events = ref [] in
      let demoted = ref [] in
      let down () = !demoted in
      let ring_of ms = Ring.make ~seed ~vnodes ~members:ms in
      let propose ~kind ~node new_members =
        let new_members = List.sort compare new_members in
        let e = (match !pending with
          | Some p -> p.pd_epoch
          | None -> !committed_epoch) + 1
        in
        let moved =
          Ring.moved ~before:(ring_of !members)
            ~after:(ring_of new_members) ~k ~n_vars
        in
        let p =
          {
            pd_epoch = e;
            pd_members = new_members;
            pd_down = down ();
            pd_kind = kind;
            pd_node = node;
            pd_keys_moved = moved;
            pd_proposed_at = Unix.gettimeofday ();
            pd_rebroadcast_at = Unix.gettimeofday () +. 1.5;
          }
        in
        broadcast (proposal p);
        pending := Some p
      in
      (* scripted schedule, in time order *)
      let sched =
        (match chaos with
        | None -> []
        | Some p ->
            List.map
              (fun r -> (r.Fault.Plan.at_ms, "join", r.Fault.Plan.rnode))
              p.Fault.Plan.joins
            @ List.map
                (fun r -> (r.Fault.Plan.at_ms, "leave", r.Fault.Plan.rnode))
                p.Fault.Plan.leaves)
        |> List.sort compare
        |> ref
      in
      let t0 = ref None in
      let last_ping = ref 0. in
      let finish_sent = ref false in
      let node_alive i = Option.is_none (Supervisor.ending sup i) in
      while Supervisor.running sup do
        let now = Unix.gettimeofday () in
        (* heartbeats: only a ping actually written counts as a probe *)
        if now -. !last_ping >= 0.05 then begin
          last_ping := now;
          Array.iter
            (fun c ->
              if Supervisor.send sup ~node:c.node Control.Ping then
                c.p_pings <- c.p_pings + 1)
            ctls
        end;
        (* pump control connections and report pipes together; pongs
           arrive through [on_control] *)
        ignore (Supervisor.step sup ~timeout:0.02 () : Unix.file_descr list);
        (* the schedule clock starts when the whole cluster has ponged *)
        if !t0 = None && Array.for_all (fun c -> c.p_at > 0.) ctls then
          t0 := Some (Unix.gettimeofday ());
        let run_ms =
          match !t0 with
          | None -> -1.
          | Some t -> (Unix.gettimeofday () -. t) *. 1000.
        in
        (* failure detector: a member whose process is gone for good is
           demoted as soon as the supervisor reaps it; a member still
           running but silent past the demotion window is demoted only
           after enough heartbeats were actually sent its way, so a
           starved box cannot produce spurious demotions *)
        (match !t0 with
        | Some _ when not !finish_sent ->
            Array.iter
              (fun c ->
                let dead =
                  match Supervisor.ending sup c.node with
                  | None | Some (Supervisor.Finished _) -> false
                  | Some _ -> true
                in
                let silent =
                  c.p_at > 0.
                  && (not (Supervisor.awaiting_respawn sup c.node))
                  && (now -. c.p_at) *. 1000. > float demote_after_ms
                  && c.p_pings >= 8
                in
                let relevant =
                  List.mem c.node !members
                  || (match !pending with
                     | Some p -> List.mem c.node p.pd_members
                     | None -> false)
                in
                if (dead || silent) && relevant
                   && not (List.mem c.node !demoted)
                then begin
                  demoted := List.sort compare (c.node :: !demoted);
                  (* supersede an in-flight proposal without losing its
                     membership change: drop the dead node from the
                     proposed set, not from the committed one *)
                  let base =
                    match !pending with
                    | Some p -> p.pd_members
                    | None -> !members
                  in
                  propose ~kind:"demote" ~node:c.node
                    (List.filter (fun p -> p <> c.node) base)
                end)
              ctls
        | _ -> ());
        (* scripted events fire only between transitions *)
        (match (!sched, !pending) with
        | (at, kind, node) :: rest, None when run_ms >= float at ->
            sched := rest;
            if List.mem node !demoted then ()
            else if kind = "join" && not (List.mem node !members) then
              propose ~kind ~node (node :: !members)
            else if
              kind = "leave" && List.mem node !members
              && List.length !members > 1
            then
              propose ~kind ~node
                (List.filter (fun p -> p <> node) !members)
        | _ -> ());
        (* commit when every proposed member is ready for the epoch *)
        (match !pending with
        | Some p ->
            let ready_node m =
              let c = ctls.(m) in
              c.p_epoch >= p.pd_epoch
              || (c.p_proposed = p.pd_epoch && c.p_ready
                  && c.p_at > p.pd_proposed_at)
            in
            if List.for_all ready_node p.pd_members then begin
              broadcast
                (Control.Commit { epoch = p.pd_epoch; members = p.pd_members });
              committed_epoch := p.pd_epoch;
              members := p.pd_members;
              events :=
                {
                  ev_epoch = p.pd_epoch;
                  ev_kind = p.pd_kind;
                  ev_node = p.pd_node;
                  ev_members = p.pd_members;
                  ev_keys_moved = p.pd_keys_moved;
                  ev_rebalance_ms =
                    int_of_float
                      ((Unix.gettimeofday () -. p.pd_proposed_at)
                      *. 1000.);
                }
                :: !events;
              pending := None
            end
            else begin
              (* straggler healing: re-send the proposal to nodes that
                 have not caught up (a respawned child recovers at its
                 pre-crash epoch and needs the proposal again) *)
              List.iter
                (fun m ->
                  let c = ctls.(m) in
                  if
                    (not (ready_node m))
                    && c.p_proposed < p.pd_epoch
                    && now -. c.catchup_at > 0.3
                  then begin
                    c.catchup_at <- now;
                    send c (proposal p)
                  end)
                p.pd_members;
              (* belt and braces while a commit is outstanding: a
                 periodic full re-send costs one frame per member and
                 removes every lost-proposal stall from the state
                 space (members drop duplicates by epoch) *)
              if now >= p.pd_rebroadcast_at then begin
                p.pd_rebroadcast_at <- now +. 1.5;
                broadcast (proposal p)
              end
            end
        | None ->
            (* catch-up for nodes behind the committed epoch *)
            Array.iter
              (fun c ->
                if
                  c.p_at > 0.
                  && c.p_epoch < !committed_epoch
                  && now -. c.catchup_at > 0.3
                then begin
                  c.catchup_at <- now;
                  send c
                    (Control.Propose
                       { epoch = !committed_epoch; members = !members;
                         down = down () });
                  send c
                    (Control.Commit
                       { epoch = !committed_epoch; members = !members })
                end)
              ctls);
        (* finish once the schedule is drained, nothing is in flight,
           and every reachable node has issued its writes *)
        if
          (not !finish_sent)
          && !sched = [] && !pending = None && !t0 <> None
          && Array.for_all
               (fun c ->
                 (not (node_alive c.node))
                 || (c.p_at > 0. && c.p_writes >= writes)
                 || List.mem c.node !demoted)
               ctls
        then begin
          finish_sent := true;
          broadcast Control.Finish
        end;
      done;
      let endings = Supervisor.stop sup in
      Supervisor.close_all (Array.to_list listeners);
      (* an injected crash with no restart leaves a WAL the member
         logged before every send: its ops can be reconstructed even
         though it never reported *)
      let salvaged = ref [] in
      let endings =
        Array.mapi
          (fun i -> function
            | Supervisor.Injected_crash as e -> (
                match Member.salvage ~node:i ~dir:(node_wal i) with
                | Some r ->
                    salvaged := i :: !salvaged;
                    Supervisor.Finished r
                | None -> e)
            | e -> e)
          endings
      in
      dispose_wal ();
      match Supervisor.outcome ~name:(Printf.sprintf "node %d") endings with
      | Error msg ->
          (* a wedged run names the stage it was stuck in *)
          Error
            (Printf.sprintf "%s (epoch %d committed, %s pending)" msg
               !committed_epoch
               (match !pending with
               | Some p -> Printf.sprintf "epoch %d" p.pd_epoch
               | None -> "none"))
      | Ok node_results ->
          let history =
            History.of_lists
              (Array.to_list node_results
              |> List.map (fun r -> r.Member.ops))
          in
          let sum f =
            Array.fold_left (fun acc r -> acc + f r) 0 node_results
          in
          let events = List.rev !events in
          let moved_gate =
            let nm = Stdlib.max 1 (List.length initial_members) in
            2 * k * n_vars / nm
          in
          let max_moved =
            List.fold_left
              (fun acc e -> Stdlib.max acc e.ev_keys_moved)
              0 events
          in
          Ok
            {
              n;
              k;
              vnodes;
              seed;
              n_vars;
              committed_epoch = !committed_epoch;
              members = !members;
              events;
              history;
              verdict = Checker.check Checker.Cache history;
              pram = Checker.check Checker.Pram history;
              stale_epochs = sum (fun r -> r.Member.stale_epochs);
              restarts = Supervisor.restarts sup;
              salvaged = List.sort compare !salvaged;
              keys_moved_total =
                List.fold_left (fun acc e -> acc + e.ev_keys_moved) 0 events;
              max_keys_moved = max_moved;
              moved_gate;
              moved_ok = max_moved <= moved_gate;
              unavail_ms =
                Array.fold_left
                  (fun acc r -> Stdlib.max acc r.Member.unavail_ms)
                  0 node_results;
              transfers = sum (fun r -> r.Member.transfers_in);
              init_fallbacks = sum (fun r -> r.Member.init_fallbacks);
              writes_total = sum (fun r -> r.Member.writes_done);
              reads_total = sum (fun r -> r.Member.reads_done);
              node_results;
              chaos =
                (match chaos with
                | None -> ""
                | Some p -> Fault.Plan.to_string p);
              wall_ms =
                int_of_float ((Unix.gettimeofday () -. t_start) *. 1000.);
            }
    with Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "reconfig: %s failed: %s" fn
           (Unix.error_message err))

(* --- reports ----------------------------------------------------------------- *)

let summary o =
  Record.
    [
      ints "epoch" "count" [ o.committed_epoch ];
      ints "rebalance" "ms"
        [ List.fold_left (fun acc e -> Stdlib.max acc e.ev_rebalance_ms) 0 o.events ];
      ints "moved" "count" [ o.keys_moved_total ];
      ints "worst" "count" [ o.max_keys_moved ];
      ints "gate" "count" [ o.moved_gate ];
      ints "unavail" "ms" [ o.unavail_ms ];
      ints "restarts" "count" [ o.restarts ];
      ints "stale_epochs" "count" [ o.stale_epochs ];
      ints "transfers" "count" [ o.transfers ];
      ints "init_fallbacks" "count" [ o.init_fallbacks ];
      ints "writes" "count" [ o.writes_total ];
      ints "reads" "count" [ o.reads_total ];
      text "cache" (Checker.verdict_name o.verdict);
      text "pram" (Checker.verdict_name o.pram);
      text "members" (ints_to_string o.members);
      text "salvaged" (ints_to_string o.salvaged);
      ints "wall" "ms" [ o.wall_ms ];
    ]

let events_table o =
  let row e =
    Record.
      {
        case = Printf.sprintf "epoch %d" e.ev_epoch;
        metrics =
          [
            text "kind" e.ev_kind;
            ints "node" "" [ e.ev_node ];
            text "members" (ints_to_string e.ev_members);
            ints "keys_moved" "count" [ e.ev_keys_moved ];
            ints "rebalance" "ms" [ e.ev_rebalance_ms ];
          ];
      }
  in
  { Record.title = "Events (commit order)"; rows = List.map row o.events }

let nodes_table o =
  let row (r : Member.result) =
    Record.
      {
        case = Printf.sprintf "node %d" r.Member.node;
        metrics =
          [
            ints "incarnation" "count" [ r.Member.incarnation ];
            ints "ops" "count" [ List.length r.Member.ops ];
            ints "writes" "count" [ r.Member.writes_done ];
            ints "reads" "count" [ r.Member.reads_done ];
            ints "epoch" "count" [ r.Member.committed_epoch ];
            ints "stale_epochs" "count" [ r.Member.stale_epochs ];
            ints "transfers_in" "count" [ r.Member.transfers_in ];
            ints "transfers_out" "count" [ r.Member.transfers_out ];
            ints "retries" "count" [ r.Member.retries ];
            ints "init_fallbacks" "count" [ r.Member.init_fallbacks ];
            ints "unavail" "ms" [ r.Member.unavail_ms ];
            ints "wall" "ms" [ r.Member.wall_ms ];
          ];
      }
  in
  { Record.title = "Nodes"; rows = List.map row (Array.to_list o.node_results) }

let gates o =
  Record.
    [
      gate "cache consistent" (o.verdict = Checker.Consistent);
      gate "keys moved per change within the 2kK/n gate" o.moved_ok;
    ]
