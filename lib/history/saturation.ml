type outcome = Consistent | Inconsistent | Unknown

type counters = {
  merge_hits : int;
  cycle_refutations : int;
  greedy_hits : int;
  unknowns : int;
  acyclic_hits : int;
}

let c_merge = Atomic.make 0
let c_cycle = Atomic.make 0
let c_greedy = Atomic.make 0
let c_unknown = Atomic.make 0
let c_acyclic = Atomic.make 0

let counters () =
  {
    merge_hits = Atomic.get c_merge;
    cycle_refutations = Atomic.get c_cycle;
    greedy_hits = Atomic.get c_greedy;
    unknowns = Atomic.get c_unknown;
    acyclic_hits = Atomic.get c_acyclic;
  }

let reset_counters () =
  Atomic.set c_merge 0;
  Atomic.set c_cycle 0;
  Atomic.set c_greedy 0;
  Atomic.set c_unknown 0;
  Atomic.set c_acyclic 0

module V = Unit_view

(* --- stream merge (single-reader units: the PRAM/slow decomposition) ------ *)

(* Schedule the reader's operations in program order; whenever a read needs a
   value from another process, apply that process's write stream up to and
   including the source (FIFO, never reordered), then drain the leftover
   stream suffixes.  The reader's chain and the streams are the view's
   [programs]: the order must be program order whichever way the view is
   numbered.  The candidate is legal by construction; it is accepted
   only if it also respects the full unit relation, which keeps the merge
   sound for any relation handed to it: each op, as it is placed, must find
   all its relation predecessors in the running [before] row (one subset
   test per op).  Failure proves nothing — the caller falls through to
   saturation. *)
let try_merge (view : V.t) =
  let reader = ref (-1) and multi = ref false in
  Array.iter
    (fun (o : Op.t) ->
      if Op.is_read o then
        if !reader < 0 then reader := o.proc
        else if o.proc <> !reader then multi := true)
    view.ops;
  if !multi || !reader < 0 then false
  else begin
    let reader = !reader and streams = view.programs in
    let ptr = Array.make (Array.length streams) 0 in
    let before = Array.make view.preds.V.w 0 in
    let last = Array.make view.n_vars (-1) in
    let place i =
      if not (V.row_subset view.preds i before) then raise Exit;
      V.add before i;
      let o = view.ops.(i) in
      if Op.is_write o then last.(V.var_slot view o) <- i
    in
    try
      Array.iter
        (fun r ->
          let o = view.ops.(r) in
          if Op.is_write o then place r
          else begin
            let s = view.source.(r) in
            if V.read_legal view last o then place r
            else if s >= 0 && view.ops.(s).Op.proc <> reader && not (V.mem before s)
            then begin
              let q = view.ops.(s).Op.proc in
              let rec advance () =
                if ptr.(q) >= Array.length streams.(q) then raise Exit;
                let w = streams.(q).(ptr.(q)) in
                ptr.(q) <- ptr.(q) + 1;
                place w;
                if w <> s then advance ()
              in
              advance ();
              if V.read_legal view last o then place r else raise Exit
            end
            else raise Exit
          end)
        streams.(reader);
      Array.iteri
        (fun q stream ->
          if q <> reader then
            for j = ptr.(q) to Array.length stream - 1 do
              place stream.(j)
            done)
        streams;
      true
    with Exit -> false
  end

(* --- write-order saturation ----------------------------------------------- *)

(* Transitive closure of successor rows, in place; [false] when they hold a
   cycle.  Kahn's algorithm gives a topological order, and rows are closed
   in reverse of it, so every successor's row is final when its
   predecessors read it.  A successor already reached through an earlier
   one adds nothing and is skipped: the work is one step per edge plus a
   row union for the few edges left. *)
let close (rows : V.rows) k =
  let indeg = Array.make k 0 in
  for i = 0 to k - 1 do
    V.iter_in_row (fun j -> indeg.(j) <- indeg.(j) + 1) rows i
  done;
  let order = Array.make k 0 and n = ref 0 in
  let push j =
    order.(!n) <- j;
    incr n
  in
  for i = 0 to k - 1 do
    if indeg.(i) = 0 then push i
  done;
  let release j =
    indeg.(j) <- indeg.(j) - 1;
    if indeg.(j) = 0 then push j
  in
  let head = ref 0 in
  while !head < !n do
    V.iter_in_row release rows order.(!head);
    incr head
  done;
  !n = k
  && begin
       let reach = Array.make rows.w 0 in
       for t = k - 1 downto 0 do
         let i = order.(t) in
         Array.fill reach 0 rows.w 0;
         V.iter_in_row
           (fun j -> if not (V.mem reach j) then V.union_row_into reach rows j)
           rows i;
         V.union_into_row rows i reach
       done;
       true
     end

(* Closure rows over forced precedence: the unit relation, each read after
   its source, each Init-read before every same-variable write, then the two
   derivation rules to a fixpoint.  Every edge holds in every legal
   serialization, so a cycle is a proof of inconsistency.

   The relation's rows are closed first: a closed relation (the causal
   family's, restricted to the unit) already is, so only its diagonal is
   scanned for a cycle.  Every further edge goes through [add_edge], which
   keeps the rows exactly closed; the result is the closure of all the
   edges whichever way the relation came.  The rows are this domain's
   scratch rows, valid until the next unit is saturated. *)
let saturate (view : V.t) k =
  let rows = V.scratch_rows view.succs k in
  let acyclic =
    if view.closed then begin
      let rec scan i = i >= k || ((not (V.row_mem rows i i)) && scan (i + 1)) in
      scan 0
    end
    else close rows k
  in
  if not acyclic then `Cycle
  else begin
    let exception Cycle in
    let tmp = Array.make rows.w 0 in
    (* add u→v and restore exact closure; raises on a back-path *)
    let add_edge u v =
      if V.row_mem rows u v then false
      else begin
        if u = v || V.row_mem rows v u then raise Cycle;
        Array.fill tmp 0 rows.w 0;
        V.union_row_into tmp rows v;
        V.add tmp v;
        for a = 0 to k - 1 do
          if a = u || V.row_mem rows a u then V.union_into_row rows a tmp
        done;
        true
      end
    in
    try
      Array.iteri
        (fun r (o : Op.t) ->
          if Op.is_read o then
            match view.source.(r) with
            | -1 ->
                List.iter
                  (fun w' -> ignore (add_edge r w'))
                  view.slot_writes.(V.var_slot view o)
            | s -> ignore (add_edge s r))
        view.ops;
      let changed = ref true in
      while !changed do
        changed := false;
        for r = 0 to k - 1 do
          let s = view.source.(r) in
          if s >= 0 then begin
            let sl = V.var_slot view view.ops.(r) in
            List.iter
              (fun w' ->
                if w' <> s then begin
                  (* source before w'  ⇒  the read precedes w' *)
                  if V.row_mem rows s w' && add_edge r w' then changed := true;
                  (* w' before the read  ⇒  w' precedes the source *)
                  if V.row_mem rows w' r && add_edge w' s then changed := true
                end)
              view.slot_writes.(sl)
          end
        done
      done;
      `Acyclic rows
    with Cycle -> `Cycle
  end

(* --- guided greedy construction ------------------------------------------- *)

(* Deterministic single-path construction over the saturated order: place
   every ready legal read eagerly (never harmful — reads leave the legality
   state untouched), then pick the lowest-index ready write that does not
   overwrite a variable some pending sourced read is currently entitled to,
   preferring sources of pending reads.  Success builds a legal
   serialization, proving consistency; getting stuck proves nothing.

   The state is kept incrementally, so each placement walks one saturated
   row:
   - [npred] counts each op's unplaced predecessors; an op is ready at 0.
   - A read is legal, if ever, the moment it becomes ready: its source (or,
     for an Init-read, every same-variable write) is a predecessor, and a
     read that is illegal then has had its value overwritten for good.  So
     ready legal reads go on a stack and the rest are never placed.
   - A sourced read is pending on its variable's window from its source's
     placement to its own; [open_reads] counts them per variable.  A write
     is only chosen on a variable with no pending reads, so every pending
     read stays legal: no window can close, and the construction gets stuck
     only when no ready write is eligible.
   - A write is wanted (the source of a pending read) exactly when some read
     of the unit reads it: its readers follow it, so all are pending while
     it is unplaced.  Ready writes sit in two rows by that static flag. *)
let greedy (view : V.t) k (rows : V.rows) =
  let npred = Array.make k 0 in
  let count j = npred.(j) <- npred.(j) + 1 in
  for i = 0 to k - 1 do
    V.iter_in_row count rows i
  done;
  let readers = Array.make k 0 in
  Array.iter (fun s -> if s >= 0 then readers.(s) <- readers.(s) + 1) view.source;
  let last = Array.make view.n_vars (-1) in
  let open_reads = Array.make view.n_vars 0 in
  let ready_wanted = Array.make rows.w 0 and ready_other = Array.make rows.w 0 in
  let stack = Array.make k 0 and depth = ref 0 in
  let n_placed = ref 0 in
  let became_ready i =
    let o = view.ops.(i) in
    if Op.is_write o then V.add (if readers.(i) > 0 then ready_wanted else ready_other) i
    else if V.read_legal view last o then begin
      stack.(!depth) <- i;
      incr depth
    end
  in
  let release j =
    npred.(j) <- npred.(j) - 1;
    if npred.(j) = 0 then became_ready j
  in
  let place i =
    incr n_placed;
    let o = view.ops.(i) in
    let sl = V.var_slot view o in
    if Op.is_write o then begin
      last.(sl) <- i;
      open_reads.(sl) <- readers.(i)
    end
    else if view.source.(i) >= 0 then open_reads.(sl) <- open_reads.(sl) - 1;
    V.iter_in_row release rows i
  in
  let eligible i = open_reads.(V.var_slot view view.ops.(i)) = 0 in
  for i = 0 to k - 1 do
    if npred.(i) = 0 then became_ready i
  done;
  let rec run () =
    while !depth > 0 do
      decr depth;
      place stack.(!depth)
    done;
    if !n_placed = k then true
    else
      let w = V.first_such eligible ready_wanted in
      let w = if w >= 0 then w else V.first_such eligible ready_other in
      if w < 0 then false
      else begin
        V.remove (if readers.(w) > 0 then ready_wanted else ready_other) w;
        place w;
        run ()
      end
  in
  run ()

(* --- decision ------------------------------------------------------------- *)

(* The saturated rows order every pair of the unit's reads, one way or
   the other. *)
let reads_ordered (view : V.t) k (rows : V.rows) =
  let read i = Op.is_read view.ops.(i) in
  let rec ordered i j =
    j >= k || ((not (read j)) || V.row_mem rows i j || V.row_mem rows j i) && ordered i (j + 1)
  in
  let rec scan i = i >= k || ((not (read i)) || ordered i (i + 1)) && scan (i + 1) in
  scan 0

(* Screen, merge an open relation's unit, saturate; the interface gives
   the argument that an acyclic result with ordered reads is a proof. *)
let decide (view : V.t) =
  let k = Array.length view.ops in
  if k = 0 then Consistent
  else if view.missing_source then begin
    Atomic.incr c_cycle;
    Inconsistent
  end
  else if view.dup_writer then begin
    Atomic.incr c_unknown;
    Unknown
  end
  else if (not view.closed) && try_merge view then begin
    Atomic.incr c_merge;
    Consistent
  end
  else
    match saturate view k with
    | `Cycle ->
        Atomic.incr c_cycle;
        Inconsistent
    | `Acyclic rows ->
        if reads_ordered view k rows then begin
          Atomic.incr c_acyclic;
          Consistent
        end
        else if greedy view k rows then begin
          Atomic.incr c_greedy;
          Consistent
        end
        else begin
          Atomic.incr c_unknown;
          Unknown
        end

module Private = struct
  let saturate (view : V.t) =
    let k = Array.length view.ops in
    match saturate view k with
    | `Cycle -> `Cycle
    | `Acyclic (rows : V.rows) ->
        `Acyclic { rows with V.bits = Array.sub rows.bits 0 (k * rows.w) }
end
