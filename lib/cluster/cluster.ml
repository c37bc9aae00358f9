module Live = Repro_transport.Live
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

let loopback = Unix.inet_addr_loopback

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

let run ~n ~protocol ~workload ~seed ?run_timeout_ms ?quiet_ms
    ?connect_timeout_ms ?deadline_ms ?chaos ?(session = false) ?durable
    ?wal_dir () =
  let chaos =
    match chaos with Some p when Fault.Plan.is_none p -> None | c -> c
  in
  let session = session || chaos <> None in
  let plan_error =
    match chaos with
    | None -> None
    | Some p -> (
        try
          Fault.Plan.validate ~n p;
          if p.Fault.Plan.dcrashes <> [] && durable = None then
            Some
              "chaos plan: a dcrash schedule needs the durability tier \
               (pass a fsync policy)"
          else None
        with Invalid_argument msg -> Some ("chaos plan: " ^ msg))
  in
  match plan_error with
  | Some msg -> Error msg
  | None -> (
      match Workload_spec.make ~name:workload ~n ~seed with
      | Error _ as e -> e
      | Ok spec -> (
          if protocol.Registry.blocking then
            Error
              (Printf.sprintf
                 "protocol %s has blocking operations; only non-blocking \
                  protocols run live"
                 protocol.Registry.name)
          else
            try
              let listen_fds =
                Array.init n (fun _ -> Live.bind (Unix.ADDR_INET (loopback, 0)))
              in
              let peers = Array.map Live.listen_addr listen_fds in
              (* a node that can crash recovers from its WAL: a crash
                 plan without a caller policy logs unsynced — a process
                 kill keeps what write() handed the kernel, and each
                 checkpoint still syncs before it rotates *)
              let durable =
                match (durable, chaos) with
                | None, Some p when p.Fault.Plan.crashes <> [] -> Some Wal.Never
                | d, _ -> d
              in
              let wal_root =
                match durable with
                | None -> None
                | Some _ ->
                    let dir =
                      match wal_dir with
                      | Some d -> d
                      | None ->
                          Filename.concat
                            (Filename.get_temp_dir_name ())
                            (Printf.sprintf "repro-cluster-wal-%d"
                               (Unix.getpid ()))
                    in
                    (try Unix.mkdir dir 0o700
                     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                    Some dir
              in
              let node_wal self =
                Option.map
                  (fun d ->
                    Filename.concat d (Printf.sprintf "node-%d.wal" self))
                  wal_root
              in
              let node_durable self =
                match (durable, node_wal self) with
                | Some policy, Some dir -> Some (dir, policy)
                | _ -> None
              in
              (* digest of the WAL contents that survived each crash,
                 computed from a frozen copy before the respawn; the
                 recovered node must reproduce it bit-for-bit *)
              let expected_digest = Array.make n None in
              (* the watchdog: a wedged run (a child that neither reports
                 nor exits — stuck barrier, dead-peer redial loop) must fail
                 in bounded time, distinguishably from an ordinary crash *)
              let sup =
                Supervisor.create
                  ~deadline_ms:
                    (match deadline_ms with
                    | Some d -> d
                    | None ->
                        Option.value run_timeout_ms ~default:60_000 + 30_000)
                  ?chaos
                  ~on_respawn:(fun self ->
                    (* durable tier: freeze exactly what the crash left on
                       disk before the respawn can touch it *)
                    match node_wal self with
                    | Some src when Sys.file_exists src ->
                        expected_digest.(self) <-
                          Some (freeze_wal ~src ~dst:(src ^ ".crash"))
                    | _ -> ())
                  ()
              in
              for self = 0 to n - 1 do
                Supervisor.spawn sup (fun ~incarnation ->
                    Array.iteri
                      (fun i fd ->
                        if i <> self then
                          try Unix.close fd with Unix.Unix_error _ -> ())
                      listen_fds;
                    Node.run ~self ~listen_fd:listen_fds.(self) ~peers
                      ~protocol ~workload:spec ~seed ?run_timeout_ms ?quiet_ms
                      ?connect_timeout_ms ?chaos ~session ~incarnation
                      ?durable:(node_durable self) ())
              done;
              (* Under chaos the parent keeps the listeners open: a peer
                 redialing a crashed node must land in the backlog instead
                 of getting ECONNREFUSED forever, and the respawned child
                 re-inherits the very same socket. *)
              let close_listeners () =
                Array.iter
                  (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                  listen_fds
              in
              if chaos = None then close_listeners ();
              let endings = Supervisor.wait sup in
              if chaos <> None then close_listeners ();
              (* a caller-named WAL root is kept for post-mortem inspection
                 (repro wal); the anonymous tmp root is not *)
              if wal_dir = None then Option.iter Fsio.remove_tree wal_root;
              let wedged =
                Array.exists
                  (function Supervisor.Put_down -> true | _ -> false)
                  endings
              in
              let crashes =
                Array.to_list endings
                |> List.mapi (fun i e ->
                       Option.map
                         (Printf.sprintf "node %d: %s" i)
                         (match e with
                         | Supervisor.Finished _ -> None
                         | Supervisor.Crashed msg -> Some msg
                         | Supervisor.Injected_crash ->
                             Some "injected crash (no restart scheduled)"
                         | Supervisor.Put_down ->
                             Some "supervisor watchdog expired"))
                |> List.filter_map Fun.id
              in
              if crashes <> [] then
                Error
                  ((if wedged then "wedged: " else "")
                  ^ String.concat "\n" crashes)
              else
                let node_results =
                  Array.map
                    (function
                      | Supervisor.Finished r -> r | _ -> assert false)
                    endings
                in
                let history =
                  History.of_lists
                    (Array.to_list node_results
                    |> List.map (fun r ->
                           List.map
                             (fun (kind, var, value, _, _) ->
                               (kind, var, value))
                             r.Node.ops))
                in
                let finals =
                  spec.Workload_spec.check_finals
                    (Array.map (fun r -> r.Node.finals) node_results)
                in
                let sum f =
                  Array.fold_left
                    (fun acc r -> acc + f r.Node.metrics)
                    0 node_results
                in
                let wsum f =
                  Array.fold_left
                    (fun acc r -> acc + f r.Node.wire)
                    0 node_results
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
                      (match chaos with
                      | None -> ""
                      | Some p -> Fault.Plan.to_string p);
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
                             | Some (Ok d) ->
                                 node_results.(i).Node.recovered_digest
                                 = Some d)
                           expected_digest);
                    wal_dir =
                      (match wal_dir with
                      | Some _ -> wal_root
                      | None -> None);
                  }
            with Unix.Unix_error (err, fn, _) ->
              Error
                (Printf.sprintf "harness: %s failed: %s" fn
                   (Unix.error_message err))))

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
