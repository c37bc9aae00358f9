(* Round-exact causal delivery buffering.

   The protocols used to keep one pending list per process and, on every
   arrival, repeatedly [List.partition] it against the vector clock —
   O(pending²) per drain.  This module reproduces that drain order exactly
   (see "round semantics" below) in amortized O(1) per applied update:

   - Per-writer ring windows.  An update from [writer] stamped [ts] can
     only become deliverable when it is the writer's next unapplied write,
     i.e. [ts.(writer) = vc.(writer) + 1].  Updates are therefore filed in
     a circular window per writer, indexed by [ts.(writer)] relative to the
     window base [vc.(writer) + 1]; only the window head is ever a
     delivery candidate.  Gossip floods can deliver a writer's notices out
     of order, which the sparse slots absorb.

   - Counter-indexed readiness.  A blocked head scans its dependency
     vector left to right and parks on the first entry [k] with
     [vc.(k) < ts.(k)].  It is re-examined only when [vc.(k)] advances,
     resuming the scan where it parked (vector clocks only grow, so
     entries already satisfied stay satisfied).  Each update is thus
     scanned O(n) total over its lifetime instead of O(n) per drain pass.

   Round semantics.  The historical drain applied, in arrival order, every
   update ready against the vector clock as it stood at the start of the
   pass, then re-partitioned.  An update unblocked mid-pass waited for the
   next pass even if it arrived before a later update of the same pass.
   Apply order is observable (last-writer-wins stores), so the engine
   emulates passes: heads unblocked while a round is applied are collected
   and sorted by arrival index to form the next round.  Between arrivals
   the buffer is at fixpoint, and a fresh arrival can unblock nothing but
   itself, so its round is the singleton historical partition produced.

   Allocation.  An arrival that is its writer's next update and whose
   dependencies are already met is applied on the spot, before any entry
   is built: that singleton round needs no window slot, no queueing and no
   sort.  Scans, wake-ups and rounds are toplevel recursions rather than
   closures, and a one-entry round skips the sort.

   The common arrival.  Under a broadcast protocol nearly every arrival
   finds its writer's window empty, and most are then applied on the spot.
   A per-writer count of buffered entries lets such an arrival skip the
   duplicate probe (an empty window holds no duplicate) and, once applied,
   the window advance and the head re-check: with every slot empty, any
   head position maps the window base to an empty slot, so the head need
   not follow the base until the window holds something again.  The
   stamp's width is checked once per arrival; the dependency scan then
   reads both arrays unchecked. *)

type 'a entry = {
  e_ts : int array;
  e_writer : int;
  e_arrival : int;
  e_payload : 'a;
  mutable e_scan : int; (* dependency-scan resume position *)
}

(* Circular per-writer window.  Its capacity is zero or a power of two,
   and slot [ (head + i) land (capacity - 1) ] holds the update with
   ts.(writer) = base + i, where base = vc.(writer) + 1.  While the window
   is empty its head may lag the base (see "The common arrival"). *)
type 'a window = {
  mutable slots : 'a entry option array;
  mutable head : int;
}

type 'a t = {
  n : int;
  vc : int array; (* vc.(k): number of k's writes processed here *)
  windows : 'a window array;
  buffered : int array; (* buffered.(k): entries held in k's window *)
  waiters : int list array; (* waiters.(k): writers parked on entry k *)
  mutable next_round : 'a entry list;
  mutable arrivals : int;
  apply : 'a -> unit;
}

let create ~n ~apply () =
  {
    n;
    vc = Array.make n 0;
    windows = Array.init n (fun _ -> { slots = [||]; head = 0 });
    buffered = Array.make n 0;
    waiters = Array.make n [];
    next_round = [];
    arrivals = 0;
    apply;
  }

let vc t = t.vc

let tick t k = t.vc.(k) <- t.vc.(k) + 1

let window_get w off =
  let cap = Array.length w.slots in
  if off >= cap then None else w.slots.((w.head + off) land (cap - 1))

let window_set w off entry =
  let cap = Array.length w.slots in
  if off >= cap then begin
    let rec fit c = if c > off then c else fit (2 * c) in
    let slots = Array.make (fit (Int.max 4 cap)) None in
    for i = 0 to cap - 1 do
      slots.(i) <- w.slots.((w.head + i) land (cap - 1))
    done;
    w.slots <- slots;
    w.head <- 0
  end;
  w.slots.((w.head + off) land (Array.length w.slots - 1)) <- Some entry

(* The first entry [i] in [k .. stop - 1] with [vc.(i) < ts.(i)], or
   [stop].  Unchecked: callers keep [stop] within both arrays. *)
let rec unmet_in (vc : int array) (ts : int array) k stop =
  if k < stop && Array.unsafe_get vc k >= Array.unsafe_get ts k then
    unmet_in vc ts (k + 1) stop
  else k

(* The first vector-clock entry at or after [k], other than [writer]'s
   own, that stamp [ts] still waits on, or [t.n] when there is none: one
   scan below [writer]'s entry, one above.  [add] checked that [ts] is [n]
   wide. *)
let first_unmet t writer ts k =
  let below = if k < writer then unmet_in t.vc ts k writer else writer in
  if below < writer then below
  else unmet_in t.vc ts (if k > writer then k else writer + 1) t.n

let park t writer entry k =
  entry.e_scan <- k;
  t.waiters.(k) <- writer :: t.waiters.(k)

(* Examine the head of [writer]'s window: queue it for the next round if
   every dependency is met, otherwise park it on the first unmet entry.
   Callers guarantee the head is neither parked nor queued already. *)
let check_head t writer =
  match window_get t.windows.(writer) 0 with
  | None -> ()
  | Some entry ->
      let k = first_unmet t writer entry.e_ts entry.e_scan in
      if k = t.n then t.next_round <- entry :: t.next_round
      else park t writer entry k

let rec wake t = function
  | [] -> ()
  | writer :: rest ->
      check_head t writer;
      wake t rest

(* [writer]'s next update has just been applied, and its window's head
   slot is empty: count the update, expose the window's new head, and
   re-examine every head parked on [writer].  An empty window keeps its
   head where it is. *)
let advance t writer =
  t.vc.(writer) <- t.vc.(writer) + 1;
  if t.buffered.(writer) > 0 then begin
    let w = t.windows.(writer) in
    w.head <- (w.head + 1) land (Array.length w.slots - 1);
    check_head t writer
  end;
  match t.waiters.(writer) with
  | [] -> ()
  | woken ->
      t.waiters.(writer) <- [];
      wake t woken

(* A queued entry is its writer's window head: take it out, then apply. *)
let apply_entry t entry =
  let writer = entry.e_writer in
  let w = t.windows.(writer) in
  w.slots.(w.head) <- None;
  t.buffered.(writer) <- t.buffered.(writer) - 1;
  t.apply entry.e_payload;
  advance t writer

let rec apply_all t = function
  | [] -> ()
  | entry :: rest ->
      apply_entry t entry;
      apply_all t rest

let by_arrival a b = compare a.e_arrival b.e_arrival

let rec run_rounds t =
  match t.next_round with
  | [] -> ()
  | [ entry ] ->
      t.next_round <- [];
      apply_entry t entry;
      run_rounds t
  | batch ->
      t.next_round <- [];
      apply_all t (List.sort by_arrival batch);
      run_rounds t

(* [off] is free in [writer]'s window: nothing is buffered there, or the
   probed slot is empty *)
let free_slot t writer off =
  t.buffered.(writer) = 0
  || match window_get t.windows.(writer) off with None -> true | Some _ -> false

let add t ~writer ~ts payload =
  if Array.length ts <> t.n then
    invalid_arg
      (Printf.sprintf "Causal_buf.add: stamp of width %d, expected %d" (Array.length ts) t.n);
  let off = ts.(writer) - (t.vc.(writer) + 1) in
  (* off < 0: already applied (a late duplicate); occupied slot: queued
     duplicate.  Both were inert in the historical pending list. *)
  if off >= 0 && free_slot t writer off then begin
    let arrival = t.arrivals in
    t.arrivals <- arrival + 1;
    let k = if off = 0 then first_unmet t writer ts 0 else 0 in
    if off = 0 && k = t.n then begin
      (* ready on arrival: the singleton round, applied in place *)
      t.apply payload;
      advance t writer;
      run_rounds t
    end
    else begin
      let entry =
        {
          e_ts = ts;
          e_writer = writer;
          e_arrival = arrival;
          e_payload = payload;
          e_scan = k;
        }
      in
      window_set t.windows.(writer) off entry;
      t.buffered.(writer) <- t.buffered.(writer) + 1;
      if off = 0 then park t writer entry k
    end
  end
