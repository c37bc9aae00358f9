module Live = Repro_transport.Live
module Control = Repro_transport.Control
module Codec = Repro_transport.Codec
module Transport = Repro_transport.Transport
module Chaos = Repro_transport.Chaos
module Net = Repro_msgpass.Net
module Fault = Repro_msgpass.Fault
module Ring = Repro_sharegraph.Ring
module Op = Repro_history.Op
module Wal = Repro_durable.Wal
module Memory = Repro_core.Memory

type config = {
  self : int;
  n : int;
  listen_fd : Unix.file_descr;
  peers : Unix.sockaddr array;
  seed : int;
  k : int;
  vnodes : int;
  n_vars : int;
  initial_members : int list;
  writes_target : int;
  chaos : Fault.Plan.t option;
  wal_dir : string option;
  incarnation : int;
}

type result = {
  node : int;
  incarnation : int;
  ops : (Op.kind * int * Op.value) list;
  writes_done : int;
  reads_done : int;
  committed_epoch : int;
  stale_epochs : int;
  transfers_in : int;
  transfers_out : int;
  retries : int;
  init_fallbacks : int;
  unavail_ms : int;
  recovered_ops : int;
  wall_ms : int;
}

exception Crash = Supervisor.Crash

(* pacing between a process's writes *)
let write_period_ms = 5

let hello_timeout_ms = 10_000

let run_timeout_ms = 60_000

(* drain quiet window after [finish] *)
let quiet_ms = 300

let fail fmt = Printf.ksprintf (fun m -> raise (Crash m)) fmt

(* Member-to-member messages, sent as [Data] frames through the
   transport.  A writer pushes [Update]s to the replica set; a donor
   streams [Migrate] records to each new holder, then one [Done]; a
   receiver still owed a [Done] sends [Pull], and the donor answers it. *)
type msg =
  | Update of { var : int; wseq : int; value : int }
  | Migrate of { var : int; wseq : int; value : int }
  | Done of { epoch : int }
  | Pull of { epoch : int }

(* A tag byte, then i32 var and wseq and an i64 value, or an i32 epoch. *)
let codec : msg Codec.t =
  let size = function
    | Update _ | Migrate _ -> 1 + 4 + 4 + 8
    | Done _ | Pull _ -> 1 + 4
  in
  let emit buf off m =
    match m with
    | Update { var; wseq; value } | Migrate { var; wseq; value } ->
        let off = Codec.put_u8 buf off (match m with Update _ -> 0 | _ -> 1) in
        let off = Codec.put_i32 buf off var in
        let off = Codec.put_i32 buf off wseq in
        Codec.put_i64 buf off value
    | Done { epoch } | Pull { epoch } ->
        let off = Codec.put_u8 buf off (match m with Done _ -> 2 | _ -> 3) in
        Codec.put_i32 buf off epoch
  in
  let parse buf pos limit =
    let tag, pos = Codec.get_u8 buf pos limit in
    match tag with
    | 0 | 1 ->
        let var, pos = Codec.get_i32 buf pos limit in
        let wseq, pos = Codec.get_i32 buf pos limit in
        let value, pos = Codec.get_i64 buf pos limit in
        ( (if tag = 0 then Update { var; wseq; value }
           else Migrate { var; wseq; value }),
          pos )
    | 2 | 3 ->
        let epoch, pos = Codec.get_i32 buf pos limit in
        ((if tag = 2 then Done { epoch } else Pull { epoch }), pos)
    | t -> raise (Codec.Bad (Printf.sprintf "member: unknown tag %d" t))
  in
  { Codec.size; emit; parse }

(* Everything that must survive a crash, appended (and fsynced, [Every 1])
   before the effect it records becomes externally visible.  That ordering
   is the whole recovery story: a write reaches the WAL before any peer
   can read it, so the reassembled history is closed under reads-from no
   matter where a crash lands. *)
type wal_entry =
  | W_write of int * int * int  (* var, wseq, value *)
  | W_read of int * int option  (* var, value read (None = Init) *)
  | W_apply of int * int * int  (* var, wseq, value — remote or migrated *)
  | W_done of int * int  (* epoch, donor whose batch completed *)
  | W_epoch of int * int list * int list * bool
      (* epoch, members, down, committed *)

let decode_entry seq payload : wal_entry =
  try Marshal.from_string payload 0
  with _ -> fail "member: WAL record %d undecodable" seq

(* the operation of this process that an entry records, if any *)
let op_of_entry = function
  | W_write (x, _, v) -> Some (Op.write ~var:x (Op.Val v))
  | W_read (x, vo) ->
      Some (Op.read ~var:x (match vo with Some v -> Op.Val v | None -> Op.Init))
  | W_apply _ | W_done _ | W_epoch _ -> None

let salvage ~node ~dir =
  match Wal.load ~dir with
  | Error _ -> None
  | Ok r -> (
      match List.map (fun (seq, p) -> decode_entry seq p) r.Wal.r_entries with
      | exception Crash _ -> None
      | entries ->
          let ops = List.filter_map op_of_entry entries in
          let count kind =
            List.length (List.filter (fun (k, _, _) -> k = kind) ops)
          in
          Some
            {
              node;
              incarnation = 0;
              ops;
              writes_done = count Op.Write;
              reads_done = count Op.Read;
              committed_epoch =
                List.fold_left
                  (fun e -> function W_epoch (e', _, _, true) -> e' | _ -> e)
                  0 entries;
              stale_epochs = 0;
              transfers_in = 0;
              transfers_out = 0;
              retries = 0;
              init_fallbacks = 0;
              unavail_ms = 0;
              recovered_ops = 0;
              wall_ms = 0;
            })

(* An in-flight transition: proposal received, commit not yet. *)
type trans = {
  t_epoch : int;
  t_members : int list;
  t_down : int list;
  t_ring : Ring.t;
  mutable t_pending : int list;  (* donors still owed a [done] *)
  t_started : int;  (* now_ms at proposal, for the unavailability window *)
  t_owed : bool;  (* this member gains variables in the transition *)
  mutable t_next_query : int;
      (* next time to pull from pending donors: the receiver's pull is
         the only resend, so a batch lost to a crash on either side is
         asked for again instead of waited on forever *)
}

(* A donor's migration batch for one receiver, kept until a newer
   proposal supersedes it and resent whole (idempotent by wseq) when the
   receiver pulls. *)
type batch = {
  b_epoch : int;
  b_receiver : int;
  b_records : (int * int * int) list;  (* var, wseq, value *)
}

let value_of_store = function None -> Op.Init | Some (_, v) -> Op.Val v

let run (cfg : config) : result =
  let t_start = Unix.gettimeofday () in
  if cfg.self < 0 || cfg.self >= cfg.n then fail "member: bad self";
  if cfg.k < 1 then fail "member: k must be >= 1";
  if cfg.n_vars < 1 then fail "member: n_vars must be >= 1";
  if cfg.initial_members = [] then fail "member: empty initial member set";
  let ring_of members =
    Ring.make ~seed:cfg.seed ~vnodes:cfg.vnodes ~members
  in
  (* --- durable state ------------------------------------------------------ *)
  let wal =
    Option.map
      (fun dir ->
        Wal.open_ ~dir ~policy:(Wal.Every 1) ~fresh:(cfg.incarnation = 0) ())
      cfg.wal_dir
  in
  if wal <> None then
    Supervisor.arm_dcrash ~self:cfg.self ~incarnation:cfg.incarnation cfg.chaos;
  let wal_log e =
    match wal with
    | None -> ()
    | Some (w, _) -> ignore (Wal.append w (Marshal.to_string e []) : int)
  in
  (* --- replica state ------------------------------------------------------ *)
  let store : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  let wseq : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let ops = ref [] in
  let writes_done = ref 0 in
  let reads_done = ref 0 in
  let members = ref (List.sort compare cfg.initial_members) in
  let committed = ref 0 in
  let trans : trans option ref = ref None in
  (* (epoch, donor) pairs whose [done] arrived before this member
     processed that epoch's proposal, from the WAL or off the wire *)
  let dones : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let recovered_proposal = ref None in
  let transfers_in = ref 0 in
  let transfers_out = ref 0 in
  let retries = ref 0 in
  let init_fallbacks = ref 0 in
  let unavail_ms = ref 0 in
  let fresher x s =
    match Hashtbl.find_opt store x with Some (s0, _) -> s > s0 | None -> true
  in
  let apply_record x s v = if fresher x s then Hashtbl.replace store x (s, v) in
  (* replay the log: reads return logged values, writes and applies are
     re-applied to the store, membership entries restore the epoch *)
  (match wal with
  | Some (_, recovered) when cfg.incarnation > 0 ->
      List.iter
        (fun (seq, payload) ->
          let entry = decode_entry seq payload in
          Option.iter (fun op -> ops := op :: !ops) (op_of_entry entry);
          match entry with
          | W_write (x, s, v) ->
              Hashtbl.replace wseq x s;
              apply_record x s v;
              incr writes_done
          | W_read _ -> incr reads_done
          | W_apply (x, s, v) -> apply_record x s v
          | W_done (e, d) -> Hashtbl.replace dones (e, d) ()
          | W_epoch (e, ms, _, true) ->
              committed := e;
              members := ms;
              recovered_proposal := None
          | W_epoch (e, ms, dn, false) ->
              recovered_proposal := Some (e, ms, dn))
        recovered.Wal.r_entries
  | _ -> ());
  let recovered_ops = List.length !ops in
  let ring = ref (ring_of !members) in
  (* variables this member currently serves reads of *)
  let held = ref [||] in
  let refresh_held () =
    let l = ref [] in
    for x = cfg.n_vars - 1 downto 0 do
      if
        Ring.is_member !ring cfg.self
        && List.mem cfg.self (Ring.replicas !ring ~k:cfg.k x)
      then l := x :: !l
    done;
    held := Array.of_list !l
  in
  refresh_held ();
  (* --- transport ---------------------------------------------------------- *)
  let fingerprint =
    Printf.sprintf "member|n=%d|k=%d|vnodes=%d|seed=%d|vars=%d|w=%d|m=%s"
      cfg.n cfg.k cfg.vnodes cfg.seed cfg.n_vars cfg.writes_target
      (String.concat "," (List.map string_of_int cfg.initial_members))
  in
  let lt =
    Live.create
      {
        Live.self = cfg.self;
        n = cfg.n;
        peers = cfg.peers;
        fingerprint;
        resilient = true;
        incarnation = cfg.incarnation;
      }
      ~listen_fd:cfg.listen_fd
  in
  Live.set_epoch lt !committed;
  let tr = (Live.factory lt).Transport.create ~codec cfg.n in
  (* priced as pram-partial prices an update: the wseq (or epoch) is the
     control information, a value is payload *)
  let send dst m =
    let payload_bytes =
      match m with
      | Update _ | Migrate _ -> Memory.value_bytes
      | Done _ | Pull _ -> 0
    in
    tr.Transport.send ~src:cfg.self ~dst ~control_bytes:8 ~payload_bytes m
  in
  let crash_sched =
    match cfg.chaos with
    | Some p when cfg.incarnation = 0 -> Fault.Plan.crash_for p cfg.self
    | _ -> None
  in
  let migr_sent = ref 0 in
  (* In this tier [crash=N@K] counts migration-record sends: the ring makes
     a donor's batch deterministic, so K lands the crash at an exact point
     inside the state transfer. *)
  let count_migration_send () =
    incr migr_sent;
    match crash_sched with
    | Some c when !migr_sent = c.Fault.Plan.after_sends ->
        raise (Chaos.Injected_crash cfg.self)
    | _ -> ()
  in
  let batches : batch list ref = ref [] in
  let send_batch b =
    List.iter
      (fun (var, wseq, value) ->
        send b.b_receiver (Migrate { var; wseq; value });
        incr transfers_out;
        count_migration_send ())
      b.b_records;
    send b.b_receiver (Done { epoch = b.b_epoch })
  in
  let finish_requested = ref false in
  (* --- the transition state machine -------------------------------------- *)
  let close_window tr =
    if tr.t_owed then
      unavail_ms :=
        Stdlib.max !unavail_ms (Live.now_ms lt - tr.t_started)
  in
  let on_proposal e new_members down =
    if e > !committed
       && (match !trans with Some tr -> e > tr.t_epoch | None -> true)
    then begin
      batches := List.filter (fun b -> b.b_epoch >= e) !batches;
      let new_members = List.sort compare new_members in
      let new_ring = ring_of new_members in
      wal_log (W_epoch (e, new_members, down, false));
      let old_holders x = Ring.replicas !ring ~k:cfg.k x in
      let gains p x =
        List.mem p (Ring.replicas new_ring ~k:cfg.k x)
        && not (List.mem p (old_holders x))
      in
      (* the least-id surviving old holder streams [x] to new holders *)
      let donor_of x =
        List.find_opt (fun p -> not (List.mem p down)) (old_holders x)
      in
      (* receiver side: variables this proposal makes us a holder of, and
         the donors we expect them from *)
      let donors = ref [] in
      let owed = ref false in
      if List.mem cfg.self new_members then
        for x = 0 to cfg.n_vars - 1 do
          if gains cfg.self x then begin
            owed := true;
            match donor_of x with
            | None -> incr init_fallbacks  (* no surviving donor: serve Init *)
            | Some d -> if not (List.mem d !donors) then donors := d :: !donors
          end
        done;
      trans :=
        Some
          {
            t_epoch = e;
            t_members = new_members;
            t_down = down;
            t_ring = new_ring;
            t_pending =
              List.filter (fun d -> not (Hashtbl.mem dones (e, d))) !donors;
            t_started = Live.now_ms lt;
            t_owed = !owed;
            t_next_query = Live.now_ms lt + 500;
          };
      (* donor side: for each receiver, the variables we stream to it *)
      if List.mem cfg.self !members && not (List.mem cfg.self down) then
        List.iter
          (fun r ->
            if r <> cfg.self then begin
              let records = ref [] and owes = ref false in
              for x = cfg.n_vars - 1 downto 0 do
                if gains r x && donor_of x = Some cfg.self then begin
                  owes := true;
                  match Hashtbl.find_opt store x with
                  | Some (s, v) -> records := (x, s, v) :: !records
                  | None -> () (* never written: receiver defaults Init *)
                end
              done;
              if !owes then begin
                let b = { b_epoch = e; b_receiver = r; b_records = !records } in
                batches := b :: !batches;
                send_batch b
              end
            end)
          new_members
    end
  in
  let on_commit e new_members =
    if e > !committed then begin
      (match !trans with
      | Some tr when tr.t_epoch = e ->
          close_window tr;
          committed := e;
          members := tr.t_members;
          ring := tr.t_ring;
          wal_log (W_epoch (e, tr.t_members, tr.t_down, true));
          trans := None
      | _ ->
          (* missed the proposal (we were down): adopt the committed
             membership without migration — surviving replicas keep
             serving, our copies degrade to what we have *)
          let ms = List.sort compare new_members in
          committed := e;
          members := ms;
          ring := ring_of ms;
          wal_log (W_epoch (e, ms, [], true));
          trans := None);
      refresh_held ();
      Live.set_epoch lt e
    end
  in
  (* proposal [e] has reached this member: committed or in flight *)
  let seen e =
    !committed >= e
    || match !trans with Some tr -> tr.t_epoch >= e | None -> false
  in
  let on_done ~donor e =
    match !trans with
    | Some tr when tr.t_epoch = e && List.mem donor tr.t_pending ->
        wal_log (W_done (e, donor));
        tr.t_pending <- List.filter (fun d -> d <> donor) tr.t_pending;
        if tr.t_pending = [] then close_window tr
    | _ when not (seen e || Hashtbl.mem dones (e, donor)) ->
        (* the batch overtook its proposal, which the supervisor sends on
           another socket: log the [done] where [on_proposal] finds it *)
        wal_log (W_done (e, donor));
        Hashtbl.replace dones (e, donor) ()
    | _ -> ()
  in
  (* a receiver still waiting on us for epoch [e]: resend the batch if we
     hold one, or answer an empty [done] if we have processed the proposal
     and owe nothing — but stay silent if the proposal has not reached us
     yet, so a premature reply can never release the receiver before the
     records exist *)
  let on_pull ~receiver e =
    match
      List.find_opt (fun b -> b.b_epoch = e && b.b_receiver = receiver) !batches
    with
    | Some b ->
        incr retries;
        send_batch b
    | None -> if seen e then send receiver (Done { epoch = e })
  in
  (* a remote write or migrated record, logged before the store changes *)
  let apply_remote x s v =
    let fresh = fresher x s in
    if fresh then begin
      wal_log (W_apply (x, s, v));
      Hashtbl.replace store x (s, v)
    end;
    fresh
  in
  tr.Transport.set_handler cfg.self (fun env ->
      match env.Net.msg with
      | Update { var; wseq; value } ->
          ignore (apply_remote var wseq value : bool)
      | Migrate { var; wseq; value } ->
          if apply_remote var wseq value then incr transfers_in
      | Done { epoch } -> on_done ~donor:env.Net.src epoch
      | Pull { epoch } -> on_pull ~receiver:env.Net.src epoch);
  (* --- the supervisor's messages ------------------------------------------- *)
  Live.set_control_handler lt (fun ~reply -> function
    | Control.Ping ->
        let proposed, ready =
          match !trans with
          | Some tr -> (tr.t_epoch, tr.t_pending = [])
          | None -> (0, false)
        in
        reply
          (Control.Pong { epoch = !committed; proposed; ready; writes = !writes_done })
    | Control.Propose { epoch; members; down } -> on_proposal epoch members down
    | Control.Commit { epoch; members } -> on_commit epoch members
    | Control.Finish -> finish_requested := true
    | _ -> ());
  Live.wait_peers lt ~timeout_ms:hello_timeout_ms;
  (* a respawned node that died mid-transition resumes it: the receiver
     side re-derives the donors it still waits on (minus logged dones),
     the donor side rebuilds and resends its batches (idempotent) *)
  (match !recovered_proposal with
  | Some (e, ms, dn) when e > !committed -> on_proposal e ms dn
  | _ -> ());
  (* --- the workload: fixed-writer paced writes, reads over held vars ------ *)
  let own_vars =
    Array.of_list
      (List.filter (fun x -> x mod cfg.n = cfg.self)
         (List.init cfg.n_vars Fun.id))
  in
  let next_write = ref 0 in
  let read_cursor = ref 0 in
  let targets_of x =
    let cur = Ring.replicas !ring ~k:cfg.k x in
    let next =
      match !trans with
      | Some tr -> Ring.replicas tr.t_ring ~k:cfg.k x
      | None -> []
    in
    List.sort_uniq compare (cur @ next)
  in
  let do_write () =
    if Array.length own_vars > 0 then begin
      let x = own_vars.(!writes_done mod Array.length own_vars) in
      let s = (match Hashtbl.find_opt wseq x with Some s -> s | None -> 0) + 1 in
      let v = (x * 1_000_000) + s in
      wal_log (W_write (x, s, v));
      Hashtbl.replace wseq x s;
      apply_record x s v;
      ops := Op.write ~var:x (Op.Val v) :: !ops;
      incr writes_done;
      List.iter
        (fun dst ->
          if dst <> cfg.self then
            send dst (Update { var = x; wseq = s; value = v }))
        (targets_of x)
    end
    else incr writes_done
  in
  let do_read () =
    if Array.length !held > 0 then begin
      let x = !held.(!read_cursor mod Array.length !held) in
      incr read_cursor;
      let stored = Hashtbl.find_opt store x in
      wal_log
        (W_read (x, match stored with Some (_, v) -> Some v | None -> None));
      ops := Op.read ~var:x (value_of_store stored) :: !ops;
      incr reads_done
    end
  in
  (try
     while not !finish_requested do
       ignore (Live.step lt ~block:true : bool);
       let now = Live.now_ms lt in
       if now > run_timeout_ms then fail "member: run timeout";
       if now >= !next_write && !writes_done < cfg.writes_target then begin
         next_write := now + write_period_ms;
         do_write ();
         do_read ()
       end;
       (* pull from donors still owed a [done]: the only resend of a
          migration batch *)
       match !trans with
       | Some tr when tr.t_pending <> [] && now >= tr.t_next_query ->
           tr.t_next_query <- now + 400;
           List.iter
             (fun d -> send d (Pull { epoch = tr.t_epoch }))
             tr.t_pending
       | _ -> ()
     done
   with Chaos.Injected_crash _ as c ->
     (match wal with Some (w, _) -> (try Wal.close w with _ -> ()) | None -> ());
     raise c);
  Live.finish_program lt;
  Live.drain lt ~quiet_ms ~max_ms:(quiet_ms + 2_000);
  let stale = Live.stale_epochs lt in
  Live.close lt;
  (match wal with Some (w, _) -> Wal.close w | None -> ());
  {
    node = cfg.self;
    incarnation = cfg.incarnation;
    ops = List.rev !ops;
    writes_done = !writes_done;
    reads_done = !reads_done;
    committed_epoch = !committed;
    stale_epochs = stale;
    transfers_in = !transfers_in;
    transfers_out = !transfers_out;
    retries = !retries;
    init_fallbacks = !init_fallbacks;
    unavail_ms = !unavail_ms;
    recovered_ops;
    wall_ms = int_of_float ((Unix.gettimeofday () -. t_start) *. 1000.);
  }
