module Live = Repro_transport.Live
module Wire = Repro_transport.Wire
module Chaos = Repro_transport.Chaos
module Fault = Repro_msgpass.Fault
module Ring = Repro_sharegraph.Ring
module Op = Repro_history.Op
module Wal = Repro_durable.Wal
module Fsio = Repro_durable.Fsio

let supervisor_id = 0xFFFF

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
      (* next time to nudge pending donors: if receiver and donor ever
         disagree about who owes what (frames lost around a crash, a
         starved donor), the receiver pulls instead of waiting forever *)
}

(* A donor's outstanding migration batch: resent whole (idempotent by
   wseq) on a bounded exponential backoff until the receiver acks. *)
type batch = {
  b_epoch : int;
  b_receiver : int;
  b_records : (int * int * int) list;  (* var, wseq, value *)
  mutable b_next_ms : int;
  mutable b_delay_ms : int;
}

let ints_to_string is = String.concat "," (List.map string_of_int is)

let ints_of_string s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

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
  (match cfg.chaos with
  | Some plan when cfg.incarnation = 0 && wal <> None ->
      Option.iter
        (fun (c : Fault.Plan.dcrash) ->
          Fsio.Crashpoint.arm ~point:c.Fault.Plan.point
            ~after:c.Fault.Plan.after_hits ~powercut:c.Fault.Plan.powercut
            (fun () -> raise (Chaos.Injected_crash cfg.self)))
        (Fault.Plan.dcrash_for plan cfg.self)
  | _ -> ());
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
  let recovered_dones : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let recovered_proposal = ref None in
  let transfers_in = ref 0 in
  let transfers_out = ref 0 in
  let retries = ref 0 in
  let init_fallbacks = ref 0 in
  let unavail_ms = ref 0 in
  let apply_record x s v =
    let fresh =
      match Hashtbl.find_opt store x with
      | Some (s0, _) -> s > s0
      | None -> true
    in
    if fresh then Hashtbl.replace store x (s, v);
    fresh
  in
  (* replay the log: reads return logged values, writes and applies are
     re-applied to the store, membership entries restore the epoch *)
  (match wal with
  | Some (_, recovered) when cfg.incarnation > 0 ->
      List.iter
        (fun (seq, payload) ->
          match (Marshal.from_string payload 0 : wal_entry) with
          | W_write (x, s, v) ->
              Hashtbl.replace wseq x s;
              ignore (apply_record x s v : bool);
              ops := Op.write ~var:x (Op.Val v) :: !ops;
              incr writes_done
          | W_read (x, vo) ->
              ops :=
                Op.read ~var:x
                  (match vo with Some v -> Op.Val v | None -> Op.Init)
                :: !ops;
              incr reads_done
          | W_apply (x, s, v) -> ignore (apply_record x s v : bool)
          | W_done (e, d) -> Hashtbl.replace recovered_dones (e, d) ()
          | W_epoch (e, ms, _, true) ->
              committed := e;
              members := ms;
              recovered_proposal := None
          | W_epoch (e, ms, dn, false) ->
              recovered_proposal := Some (e, ms, dn)
          | exception _ -> fail "member: WAL record %d undecodable" seq)
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
      (ints_to_string cfg.initial_members)
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
        connect_timeout_ms = 0;
      }
      ~listen_fd:cfg.listen_fd
  in
  Live.set_epoch lt !committed;
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
      (fun (x, s, v) ->
        Live.send_control lt ~dst:b.b_receiver ~kind:Wire.Transfer
          ~body:(Printf.sprintf "m|%d|%d|%d" x s v);
        incr transfers_out;
        count_migration_send ())
      b.b_records;
    Live.send_control lt ~dst:b.b_receiver ~kind:Wire.Transfer
      ~body:
        (Printf.sprintf "d|%d|%d" b.b_epoch (List.length b.b_records))
  in
  let finish_requested = ref false in
  (* --- the transition state machine -------------------------------------- *)
  let close_window tr =
    if tr.t_owed then
      unavail_ms :=
        Stdlib.max !unavail_ms (Live.now_ms lt - tr.t_started)
  in
  let on_proposal e new_members down =
    let superseded b = b.b_epoch < e in
    if e > !committed
       && (match !trans with Some tr -> e > tr.t_epoch | None -> true)
    then begin
      batches := List.filter (fun b -> not (superseded b)) !batches;
      let new_members = List.sort compare new_members in
      let new_ring = ring_of new_members in
      wal_log (W_epoch (e, new_members, down, false));
      (* receiver side: variables this proposal makes us a holder of, and
         the donors (least-id surviving old holders) we expect them from *)
      let donors = ref [] in
      let owed = ref false in
      if List.mem cfg.self new_members then
        for x = 0 to cfg.n_vars - 1 do
          let now_holds = List.mem cfg.self (Ring.replicas new_ring ~k:cfg.k x) in
          let had = List.mem cfg.self (Ring.replicas !ring ~k:cfg.k x) in
          if now_holds && not had then begin
            owed := true;
            match
              List.filter
                (fun p -> not (List.mem p down))
                (Ring.replicas !ring ~k:cfg.k x)
            with
            | [] -> incr init_fallbacks  (* no surviving donor: serve Init *)
            | d :: _ -> if not (List.mem d !donors) then donors := d :: !donors
          end
        done;
      let pending =
        List.filter
          (fun d -> not (Hashtbl.mem recovered_dones (e, d)))
          !donors
      in
      trans :=
        Some
          {
            t_epoch = e;
            t_members = new_members;
            t_down = down;
            t_ring = new_ring;
            t_pending = pending;
            t_started = Live.now_ms lt;
            t_owed = !owed;
            t_next_query = Live.now_ms lt + 500;
          };
      (* donor side: for each receiver, the variables whose least-id
         surviving old holder is this member *)
      if List.mem cfg.self !members && not (List.mem cfg.self down) then
        List.iter
          (fun r ->
            if r <> cfg.self then begin
              let records = ref [] in
              for x = cfg.n_vars - 1 downto 0 do
                let gains =
                  List.mem r (Ring.replicas new_ring ~k:cfg.k x)
                  && not (List.mem r (Ring.replicas !ring ~k:cfg.k x))
                in
                if gains then
                  match
                    List.filter
                      (fun p -> not (List.mem p down))
                      (Ring.replicas !ring ~k:cfg.k x)
                  with
                  | d :: _ when d = cfg.self -> (
                      match Hashtbl.find_opt store x with
                      | Some (s, v) -> records := (x, s, v) :: !records
                      | None -> () (* never written: receiver defaults Init *))
                  | _ -> ()
              done;
              let gains_any =
                !records <> []
                || List.exists
                     (fun x ->
                       List.mem r (Ring.replicas new_ring ~k:cfg.k x)
                       && not (List.mem r (Ring.replicas !ring ~k:cfg.k x))
                       &&
                       match
                         List.filter
                           (fun p -> not (List.mem p down))
                           (Ring.replicas !ring ~k:cfg.k x)
                       with
                       | d :: _ -> d = cfg.self
                       | [] -> false)
                     (List.init cfg.n_vars Fun.id)
              in
              if gains_any then begin
                let b =
                  {
                    b_epoch = e;
                    b_receiver = r;
                    b_records = !records;
                    b_next_ms = Live.now_ms lt + 150;
                    b_delay_ms = 150;
                  }
                in
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
  let on_done ~donor e =
    (match !trans with
    | Some tr when tr.t_epoch = e && List.mem donor tr.t_pending ->
        wal_log (W_done (e, donor));
        tr.t_pending <- List.filter (fun d -> d <> donor) tr.t_pending;
        if tr.t_pending = [] then close_window tr
    | _ -> ());
    (* always ack: the donor retries until it hears one, and a duplicate
       [done] means the previous ack was lost *)
    if donor >= 0 && donor < cfg.n then
      Live.send_control lt ~dst:donor ~kind:Wire.Transfer
        ~body:(Printf.sprintf "a|%d" e)
  in
  let on_ack ~receiver e =
    batches :=
      List.filter
        (fun b -> not (b.b_epoch = e && b.b_receiver = receiver))
        !batches
  in
  (* --- control frames ----------------------------------------------------- *)
  let parse_proposal body =
    match String.split_on_char '|' body with
    | [ e; ms; dn ] -> (
        try (int_of_string e, ints_of_string ms, ints_of_string dn)
        with _ -> fail "member: bad proposal %S" body)
    | _ -> fail "member: bad proposal %S" body
  in
  let ready () =
    match !trans with Some tr -> tr.t_pending = [] | None -> false
  in
  Live.set_control_handler lt (fun ~reply (v : Wire.view) ->
      let body = Bytes.sub_string v.Wire.v_buf v.Wire.v_off v.Wire.v_len in
      match v.Wire.v_kind with
      | Wire.Ping ->
          reply ~kind:Wire.Pong ~dst:v.Wire.v_src
            ~body:
              (Printf.sprintf "e=%d;p=%d;r=%d;w=%d;s=%d" !committed
                 (match !trans with Some tr -> tr.t_epoch | None -> 0)
                 (if ready () then 1 else 0)
                 !writes_done (Live.stale_epochs lt))
      | Wire.Join | Wire.Leave ->
          let e, ms, dn = parse_proposal body in
          on_proposal e ms dn
      | Wire.Epoch -> (
          match String.split_on_char '|' body with
          | "finish" :: _ -> finish_requested := true
          | [ "commit"; e; ms ] -> (
              try on_commit (int_of_string e) (ints_of_string ms)
              with Crash _ as c -> raise c)
          | _ -> fail "member: bad epoch frame %S" body)
      | Wire.Transfer -> (
          match String.split_on_char '|' body with
          | [ "u"; x; s; vv ] ->
              let x = int_of_string x
              and s = int_of_string s
              and vv = int_of_string vv in
              if
                match Hashtbl.find_opt store x with
                | Some (s0, _) -> s > s0
                | None -> true
              then begin
                wal_log (W_apply (x, s, vv));
                Hashtbl.replace store x (s, vv)
              end
          | [ "m"; x; s; vv ] ->
              let x = int_of_string x
              and s = int_of_string s
              and vv = int_of_string vv in
              if
                match Hashtbl.find_opt store x with
                | Some (s0, _) -> s > s0
                | None -> true
              then begin
                wal_log (W_apply (x, s, vv));
                Hashtbl.replace store x (s, vv);
                incr transfers_in
              end
          | "d" :: e :: _ -> on_done ~donor:v.Wire.v_src (int_of_string e)
          | [ "a"; e ] -> on_ack ~receiver:v.Wire.v_src (int_of_string e)
          | [ "q"; e ] ->
              (* a receiver still waiting on us for epoch [e]: resend the
                 batch if we hold one, or answer an empty [done] if we
                 have processed the proposal and owe nothing — but stay
                 silent if the proposal has not reached us yet, so a
                 premature reply can never release the receiver before
                 the records exist *)
              let e = int_of_string e in
              let receiver = v.Wire.v_src in
              (match
                 List.find_opt
                   (fun b -> b.b_epoch = e && b.b_receiver = receiver)
                   !batches
               with
              | Some b -> send_batch b
              | None ->
                  let seen =
                    !committed >= e
                    || match !trans with
                       | Some tr -> tr.t_epoch >= e
                       | None -> false
                  in
                  if seen && receiver >= 0 && receiver < cfg.n then
                    Live.send_control lt ~dst:receiver ~kind:Wire.Transfer
                      ~body:(Printf.sprintf "d|%d|0" e))
          | _ -> fail "member: bad transfer frame %S" body)
      | Wire.Pong -> ()
      | _ -> ());
  Live.wait_peers lt ~timeout_ms:hello_timeout_ms;
  (* a respawned node that died mid-transition resumes it: the receiver
     side re-derives the donors it still owes an ack (minus logged dones),
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
      ignore (apply_record x s v : bool);
      ops := Op.write ~var:x (Op.Val v) :: !ops;
      incr writes_done;
      List.iter
        (fun dst ->
          if dst <> cfg.self then
            Live.send_control lt ~dst ~kind:Wire.Transfer
              ~body:(Printf.sprintf "u|%d|%d|%d" x s v))
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
       (* bounded-backoff retransmission of unacked migration batches *)
       List.iter
         (fun b ->
           if now >= b.b_next_ms then begin
             b.b_delay_ms <- Stdlib.min 1_600 (b.b_delay_ms * 2);
             b.b_next_ms <- now + b.b_delay_ms;
             incr retries;
             send_batch b
           end)
         !batches;
       (* pull from donors still owed a [done]: heals any receiver/donor
          disagreement about the migration plan instead of wedging *)
       (match !trans with
       | Some tr when tr.t_pending <> [] && now >= tr.t_next_query ->
           tr.t_next_query <- now + 400;
           List.iter
             (fun d ->
               if d >= 0 && d < cfg.n && d <> cfg.self then
                 Live.send_control lt ~dst:d ~kind:Wire.Transfer
                   ~body:(Printf.sprintf "q|%d" tr.t_epoch))
             tr.t_pending
       | _ -> ())
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
