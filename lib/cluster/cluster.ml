module Session = Repro_transport.Session
module Transport = Repro_transport.Transport
module Fault = Repro_msgpass.Fault
module Latency = Repro_msgpass.Latency
module Net = Repro_msgpass.Net
module History = Repro_history.History
module Checker = Repro_history.Checker
module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Runner = Repro_core.Runner
module Wal = Repro_durable.Wal
module Fsio = Repro_durable.Fsio
module Record = Repro_util.Record

type outcome = {
  protocol : string;
  workload : string;
  n : int;
  seed : int;
  history : History.t;
  criterion : Checker.criterion;
  verdict : Checker.verdict;
  history_checked : bool;
  finals : (unit, string) result;
  node_results : Node.result array;
  messages_sent : int;
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;
  retransmits : int;
  dups_suppressed : int;
  dropped_frames : int;
  reconnects : int;
  restarts : int;
  chaos : string;
  session : bool;
  wall_ms : int;
  durable : bool;
  wal_parity : bool;
  wal_dir : string option;
}

(* Freeze a crashed node's WAL directory: byte-for-byte copies of exactly
   the files that survived, taken before the respawned child may touch
   them, and the digest oracle the recovered node must match. *)
let freeze_wal ~src ~dst =
  Fsio.remove_tree dst;
  (try Unix.mkdir dst 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun f ->
      let sp = Filename.concat src f in
      if not (Sys.is_directory sp) then begin
        let data = In_channel.with_open_bin sp In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc data)
      end)
    (Sys.readdir src);
  match Wal.load ~dir:dst with
  | Error e -> Error (Printf.sprintf "surviving WAL unrecoverable: %s" e)
  | Ok r ->
      let entries =
        List.filter_map
          (fun (_, payload) ->
            match Oplog.decode payload with
            | Ok (e, _) -> Some e
            | Error _ -> None)
          r.Wal.r_entries
      in
      if List.length entries <> List.length r.Wal.r_entries then
        Error "surviving WAL holds undecodable op records"
      else Ok (Oplog.digest ~ck:r.Wal.r_checkpoint ~entries)

let run ~n ~protocol ~workload ~seed ?deadline_ms ?chaos ?(session = false)
    ?durable ?wal_dir () =
  let ( let* ) = Result.bind in
  let* chaos =
    Fault.Plan.check ~n ~runtime:"a static cluster" ~rejects:[ "join"; "leave" ]
      chaos
  in
  let* () =
    match chaos with
    | Some p when p.Fault.Plan.dcrashes <> [] && durable = None ->
        Error
          "chaos plan: a dcrash schedule needs the durability tier (pass a \
           fsync policy)"
    | _ -> Ok ()
  in
  let* spec = Workload_spec.make ~name:workload ~n ~seed in
  if protocol.Registry.blocking then
    Error
      (Printf.sprintf
         "protocol %s has blocking operations; only non-blocking protocols run \
          live"
         protocol.Registry.name)
  else
    try
      let session = session || chaos <> None in
      let listeners, peers = Supervisor.loopback n in
      (* a node that can crash recovers from its WAL: a crash plan without
         a caller policy logs unsynced — a process kill keeps what write()
         handed the kernel, and each checkpoint still syncs before it
         rotates *)
      let durable =
        match (durable, chaos) with
        | None, Some p when p.Fault.Plan.crashes <> [] -> Some Wal.Never
        | d, _ -> d
      in
      (* a caller-named WAL root is kept for post-mortem inspection (repro
         wal); the anonymous tmp root is not *)
      let wal_root =
        Option.map
          (fun _ -> Fsio.scratch_dir ?keep:wal_dir "repro-cluster-wal")
          durable
      in
      let node_durable self =
        match (durable, wal_root) with
        | Some policy, Some (d, _) ->
            Some (Filename.concat d (Printf.sprintf "node-%d.wal" self), policy)
        | _ -> None
      in
      (* digest of the WAL contents that survived each crash, computed
         from a frozen copy before the respawn; the recovered node must
         reproduce it bit-for-bit *)
      let expected_digest = Array.make n None in
      (* the watchdog: a wedged run (a child that neither reports nor
         exits — stuck barrier, dead-peer redial loop) must fail in
         bounded time, distinguishably from an ordinary crash *)
      let sup =
        Supervisor.create
          ~deadline_ms:
            (* Node.run's 60 s run timeout plus 30 s *)
            (Option.value deadline_ms ~default:90_000)
          ?chaos
          ~on_respawn:(fun self ->
            (* durable tier: freeze exactly what the crash left on disk
               before the respawn can touch it *)
            match node_durable self with
            | Some (src, _) when Sys.file_exists src ->
                expected_digest.(self) <-
                  Some (freeze_wal ~src ~dst:(src ^ ".crash"))
            | _ -> ())
          ()
      in
      for self = 0 to n - 1 do
        Supervisor.spawn_node sup listeners ~self (fun ~incarnation ->
            Node.run ~self ~listen_fd:listeners.(self) ~peers ~protocol
              ~workload:spec ~seed ?chaos ~session ~incarnation
              ?durable:(node_durable self) ())
      done;
      (* Under chaos the parent keeps the listeners open: a peer redialing
         a crashed node must land in the backlog instead of getting
         ECONNREFUSED forever, and the respawned child re-inherits the very
         same socket. *)
      if chaos = None then Supervisor.close_all (Array.to_list listeners);
      let endings = Supervisor.wait sup in
      if chaos <> None then Supervisor.close_all (Array.to_list listeners);
      Option.iter (fun (_, dispose) -> dispose ()) wal_root;
      let* node_results =
        Supervisor.outcome ~name:(Printf.sprintf "node %d") endings
      in
      let history =
        History.of_lists
          (Array.to_list node_results
          |> List.map (fun r ->
                 List.map
                   (fun (kind, var, value, _, _) -> (kind, var, value))
                   r.Node.ops))
      in
      let finals =
        spec.Workload_spec.check_finals
          (Array.map (fun r -> r.Node.finals) node_results)
      in
      let sum f =
        Array.fold_left (fun acc r -> acc + f r.Node.metrics) 0 node_results
      in
      let wsum f =
        Array.fold_left (fun acc r -> acc + f r.Node.wire) 0 node_results
      in
      Ok
        {
          protocol = protocol.Registry.name;
          workload = spec.Workload_spec.name;
          n;
          seed;
          history;
          criterion = protocol.Registry.guarantees;
          verdict = Checker.check protocol.Registry.guarantees history;
          history_checked = spec.Workload_spec.differentiated;
          finals;
          node_results;
          messages_sent = sum (fun m -> m.Memory.messages_sent);
          control_bytes = sum (fun m -> m.Memory.control_bytes);
          payload_bytes = sum (fun m -> m.Memory.payload_bytes);
          overhead_bytes = wsum (fun w -> w.Net.overhead_bytes);
          retransmits = wsum (fun w -> w.Net.retransmits);
          dups_suppressed = wsum (fun w -> w.Net.dups_suppressed);
          dropped_frames = wsum (fun w -> w.Net.dropped);
          reconnects = wsum (fun w -> w.Net.reconnects);
          restarts = Supervisor.restarts sup;
          chaos =
            (match chaos with None -> "" | Some p -> Fault.Plan.to_string p);
          session;
          wall_ms =
            Array.fold_left
              (fun acc r -> Stdlib.max acc r.Node.wall_ms)
              0 node_results;
          durable = durable <> None;
          wal_parity =
            Array.for_all Fun.id
              (Array.mapi
                 (fun i expected ->
                   match expected with
                   | None -> true
                   | Some (Error _) -> false
                   | Some (Ok d) -> node_results.(i).Node.recovered_digest = Some d)
                 expected_digest);
          wal_dir =
            (if wal_dir = None then None else Option.map fst wal_root);
        }
    with Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "harness: %s failed: %s" fn (Unix.error_message err))

type baseline = { history : History.t; metrics : Memory.metrics }

let sim_baseline ?chaos ?(session = false) ~n ~protocol ~workload ~seed () =
  match Workload_spec.make ~name:workload ~n ~seed with
  | Error _ as e -> e
  | Ok spec ->
      let chaotic =
        match chaos with Some p -> not (Fault.Plan.is_none p) | None -> false
      in
      let memory =
        if session || chaotic then
          (* same stack order as a live node: backend → chaos → session →
             protocol, so the same plan reproduces deterministically *)
          protocol.Registry.make
            ~transport:
              (Session.stack ?plan:chaos ~seed
                 (Transport.sim ~latency:Latency.lan ~seed ()))
            ~dist:spec.Workload_spec.dist ~seed ()
        else protocol.Registry.make ~dist:spec.Workload_spec.dist ~seed ()
      in
      let history = Runner.run memory ~programs:spec.Workload_spec.programs in
      Ok { history; metrics = memory.Memory.metrics () }

let accepted o =
  (match o.verdict with
  | Checker.Consistent -> true
  | Checker.Inconsistent -> false
  | Checker.Undecidable _ -> not o.history_checked)
  && Result.is_ok o.finals

let sim_parity ~protocol o =
  match
    sim_baseline ~n:o.n ~protocol ~workload:o.workload ~seed:o.seed ()
  with
  | Error _ as e -> e
  | Ok b ->
      let m = b.metrics in
      Ok
        [
          ("messages", o.messages_sent, m.Memory.messages_sent);
          ("control bytes", o.control_bytes, m.Memory.control_bytes);
          ("payload bytes", o.payload_bytes, m.Memory.payload_bytes);
        ]

let summary o =
  Record.
    [
      ints "messages" "count" [ o.messages_sent ];
      ints "control_bytes" "B" [ o.control_bytes ];
      ints "payload_bytes" "B" [ o.payload_bytes ];
      ints "overhead_bytes" "B" [ o.overhead_bytes ];
      ints "retransmits" "count" [ o.retransmits ];
      ints "dups_suppressed" "count" [ o.dups_suppressed ];
      ints "dropped_frames" "count" [ o.dropped_frames ];
      ints "reconnects" "count" [ o.reconnects ];
      ints "restarts" "count" [ o.restarts ];
      ints "node_wall" "ms" [ o.wall_ms ];
      text "verdict" (Checker.verdict_name o.verdict);
    ]

let nodes_table o =
  let row (r : Node.result) =
    let m = r.Node.metrics and w = r.Node.wire in
    Record.
      {
        case = Printf.sprintf "node %d" r.Node.node;
        metrics =
          [
            ints "ops" "count" [ List.length r.Node.ops ];
            ints "messages" "count" [ m.Memory.messages_sent ];
            ints "control_bytes" "B" [ m.Memory.control_bytes ];
            ints "payload_bytes" "B" [ m.Memory.payload_bytes ];
            ints "wall" "ms" [ r.Node.wall_ms ];
          ]
          @ (if not o.session then []
             else
               [
                 ints "incarnation" "count" [ r.Node.incarnation ];
                 ints "dropped" "count" [ w.Net.dropped ];
                 ints "retransmits" "count" [ w.Net.retransmits ];
                 ints "overhead_bytes" "B" [ w.Net.overhead_bytes ];
               ])
          @
          match r.Node.wal_stats with
          | None -> []
          | Some s ->
              [
                ints "wal_appends" "count" [ s.Wal.appends ];
                ints "fsyncs" "count" [ s.Wal.syncs ];
                ints "rotations" "count" [ s.Wal.rotations ];
              ];
      }
  in
  { Record.title = "Nodes"; rows = List.map row (Array.to_list o.node_results) }

let gates o =
  Record.gate "accepted" (accepted o)
  :: (if o.durable then [ Record.gate "WAL digest parity" o.wal_parity ] else [])
