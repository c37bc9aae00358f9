module Graph = Repro_util.Graph

(* --- int-array bit rows (32 bits per word) -------------------------------- *)

let words_for k = (k + 31) lsr 5
let mem w i = w.(i lsr 5) land (1 lsl (i land 31)) <> 0
let add w i = w.(i lsr 5) <- w.(i lsr 5) lor (1 lsl (i land 31))
let remove w i = w.(i lsr 5) <- w.(i lsr 5) land lnot (1 lsl (i land 31))

(* index of the single set bit of [b] (a power of two below 2^32): de Bruijn
   multiply-and-lookup *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index b = debruijn.(((b * 0x077CB531) land 0xffffffff) lsr 27)

(* the set bits of the [n] words of [a] from [off], as bit indexes counted
   from [off] *)
let iter_words f a off n =
  for wi = 0 to n - 1 do
    let w = ref a.(off + wi) in
    while !w <> 0 do
      let low = !w land (- !w) in
      f ((wi lsl 5) lor bit_index low);
      w := !w lxor low
    done
  done

let iter_row f row = iter_words f row 0 (Array.length row)

let rec first_from pred row wi w =
  if w = 0 then
    if wi + 1 >= Array.length row then -1
    else first_from pred row (wi + 1) row.(wi + 1)
  else
    let low = w land (-w) in
    let i = (wi lsl 5) lor bit_index low in
    if pred i then i else first_from pred row wi (w lxor low)

let first_such pred row =
  if Array.length row = 0 then -1 else first_from pred row 0 row.(0)

(* --- flat rows ------------------------------------------------------------ *)

type rows = { w : int; bits : int array }

let row_mem { w; bits } i j = bits.((i * w) + (j lsr 5)) land (1 lsl (j land 31)) <> 0

let row_add { w; bits } i j =
  let x = (i * w) + (j lsr 5) in
  bits.(x) <- bits.(x) lor (1 lsl (j land 31))

let iter_in_row f { w; bits } i = iter_words f bits (i * w) w

(* a loop, not a local recursive function: that would be a closure
   allocated on every call, and the merge and the search call this once per
   op they place *)
let row_subset { w; bits } i b =
  let off = i * w and j = ref 0 in
  while !j < w && bits.(off + !j) land lnot b.(!j) = 0 do
    incr j
  done;
  !j = w

let union_row_into dst { w; bits } i =
  let off = i * w in
  for j = 0 to w - 1 do
    dst.(j) <- dst.(j) lor bits.(off + j)
  done

let union_into_row { w; bits } i src =
  let off = i * w in
  for j = 0 to w - 1 do
    bits.(off + j) <- bits.(off + j) lor src.(j)
  done

(* A typed word loop: [Array.blit] into an [int array] on the major heap
   goes through the write barrier for every word. *)
let copy_words (src : int array) soff (dst : int array) doff n =
  for j = 0 to n - 1 do
    dst.(doff + j) <- src.(soff + j)
  done

(* The row buffers this domain reuses: fresh ones for each unit would be
   major-heap blocks.  [preds_buf] and [succs_buf] hold the unit last built
   by {!proc_unit}, [work_buf] the rows last copied by {!scratch_rows}. *)
type buffers = {
  mutable preds_buf : int array;
  mutable succs_buf : int array;
  mutable work_buf : int array;
}

let buffers =
  Domain.DLS.new_key (fun () -> { preds_buf = [||]; succs_buf = [||]; work_buf = [||] })

(* [buf], or a larger fresh buffer when it holds fewer than [n] words *)
let at_least buf n =
  if Array.length buf >= n then buf
  else Array.make (Int.max n (2 * Array.length buf)) 0

let scratch_rows { w; bits } k =
  let st = Domain.DLS.get buffers in
  st.work_buf <- at_least st.work_buf (k * w);
  copy_words bits 0 st.work_buf 0 (k * w);
  { w; bits = st.work_buf }

(* --- the writer index ----------------------------------------------------- *)

type index = { all_ops : Op.t array; writers : int list array }

let index all_ops ~writers = { all_ops; writers }

(* --- the view ------------------------------------------------------------- *)

type t = {
  ops : Op.t array;
  gids : int array;
  preds : rows;
  succs : rows;
  closed : bool;
  var_slot_of : int array;
  n_vars : int;
  source : int array;
  missing_source : bool;
  dup_writer : bool;
  slot_writes : int list array;
  programs : int array array;
}

(* Dense slots for the variables of [ops], in order of first appearance. *)
let var_slots ops =
  let max_var = Array.fold_left (fun m (o : Op.t) -> Int.max m o.var) (-1) ops in
  let var_slot_of = Array.make (max_var + 1) (-1) in
  let n_vars = ref 0 in
  Array.iter
    (fun (o : Op.t) ->
      if var_slot_of.(o.var) < 0 then begin
        var_slot_of.(o.var) <- !n_vars;
        incr n_vars
      end)
    ops;
  (var_slot_of, !n_vars)

(* slot -> the indices of the writes in [ops] on it, ascending *)
let slot_writes var_slot_of n_vars ops =
  let writes = Array.make (Int.max n_vars 1) [] in
  for i = Array.length ops - 1 downto 0 do
    let o = ops.(i) in
    if Op.is_write o then begin
      let sl = var_slot_of.(o.Op.var) in
      writes.(sl) <- i :: writes.(sl)
    end
  done;
  writes

let n_procs_of ops = 1 + Array.fold_left (fun m (o : Op.t) -> Int.max m o.proc) (-1) ops

(* The [source] entry of the op with global id [gid], given [local]: global
   id -> index in the unit, [-1] outside it.  A read's source is its
   value's writer in the unit; of two, the one with the larger index. *)
let source_of writers local gid (o : Op.t) =
  match (o.kind, o.value) with
  | Op.Write, _ -> -2
  | Op.Read, Op.Init -> -1
  | Op.Read, Op.Val _ ->
      let s = List.fold_left (fun s w -> Int.max s local.(w)) (-1) writers.(gid) in
      if s < 0 then -2 else s

(* Another write of the unit stores this write's value in its variable. *)
let dup_write writers local gid =
  List.exists (fun w -> w <> gid && local.(w) >= 0) writers.(gid)

let make { all_ops; writers } ~subset ~relation =
  let gids = Array.of_list subset in
  let k = Array.length gids in
  let local_of = Array.make (Array.length all_ops) (-1) in
  Array.iteri (fun i gid -> local_of.(gid) <- i) gids;
  let ops = Array.map (fun gid -> all_ops.(gid)) gids in
  let w = words_for k in
  let preds = { w; bits = Array.make (k * w) 0 } in
  let succs = { w; bits = Array.make (k * w) 0 } in
  (* one closure for the whole walk: [from] carries the current op *)
  let from = ref 0 in
  let link succ_gid =
    let j = local_of.(succ_gid) in
    if j >= 0 then begin
      row_add succs !from j;
      row_add preds j !from
    end
  in
  for i = 0 to k - 1 do
    from := i;
    Graph.iter_succ relation gids.(i) link
  done;
  let var_slot_of, n_vars = var_slots ops in
  let source = Array.mapi (fun i o -> source_of writers local_of gids.(i) o) ops in
  (* each process's ops in global-id order, which is program order *)
  let by_gid = Array.init k Fun.id in
  Array.stable_sort (fun a b -> compare gids.(a) gids.(b)) by_gid;
  let programs = Array.make (n_procs_of ops) [] in
  for r = k - 1 downto 0 do
    let i = by_gid.(r) in
    let p = ops.(i).Op.proc in
    programs.(p) <- i :: programs.(p)
  done;
  {
    ops;
    gids;
    preds;
    succs;
    closed = Graph.is_closed relation;
    var_slot_of;
    n_vars;
    source;
    missing_source = Array.exists2 (fun (o : Op.t) s -> Op.is_read o && s = -2) ops source;
    dup_writer =
      Array.exists2
        (fun (o : Op.t) gid -> Op.is_write o && dup_write writers local_of gid)
        ops gids;
    slot_writes = slot_writes var_slot_of n_vars ops;
    programs = Array.map Array.of_list programs;
  }

(* --- the write skeleton --------------------------------------------------- *)

(* Rows [0 .. n_writes-1] are the writes in global-id order; after them come
   the history's reads in global-id order, so each process's reads are one
   block of rows, [n_writes + first_read.(p) ..].  A write's row holds its
   write-to-write edges.  A read's row holds its edges with the writes and
   with its own process's reads, numbered as in that process's unit
   ([n_writes] + the read's rank in its process). *)
type skeleton = {
  rows_ops : Op.t array;  (** row -> operation *)
  rows_gids : int array;  (** row -> global id *)
  rows_source : int array;  (** row -> the unit's [source] entry *)
  n_writes : int;
  sk_preds : rows;  (** wide enough for every process's unit *)
  sk_succs : rows;
  first_read : int array;
      (** process -> its reads' first row less [n_writes]; one entry past the
          last process *)
  missing : bool array;  (** process -> some read of it has no writer *)
  sk_programs : int array array;
      (** process -> its writes' rows in program order; {!proc_unit} puts
          the reader's own chain in its slot *)
  chains : int array array;
      (** process -> its unit's local indices of its ops, in program order *)
  sk_closed : bool;
  sk_var_slot_of : int array;
  sk_n_vars : int;
  sk_dup_writer : bool;
  sk_slot_writes : int list array;  (** the writes' rows are their unit indices *)
}

let skeleton { all_ops; writers } relation =
  let n = Array.length all_ops in
  let n_procs = n_procs_of all_ops in
  let n_writes =
    Array.fold_left (fun c o -> if Op.is_write o then c + 1 else c) 0 all_ops
  in
  (* [row.(gid)]: the skeleton row; [local.(gid)]: the index in its units *)
  let row = Array.make n 0 and local = Array.make n 0 in
  let reads_of = Array.make n_procs 0 in
  let nw = ref 0 and nr = ref 0 in
  Array.iteri
    (fun gid (o : Op.t) ->
      if Op.is_write o then begin
        row.(gid) <- !nw;
        local.(gid) <- !nw;
        incr nw
      end
      else begin
        row.(gid) <- n_writes + !nr;
        local.(gid) <- n_writes + reads_of.(o.proc);
        incr nr;
        reads_of.(o.proc) <- reads_of.(o.proc) + 1
      end)
    all_ops;
  let first_read = Array.make (n_procs + 1) 0 in
  for p = 0 to n_procs - 1 do
    first_read.(p + 1) <- first_read.(p) + reads_of.(p)
  done;
  let w = words_for (n_writes + Array.fold_left Int.max 0 reads_of) in
  let n_rows = n_writes + !nr in
  let preds = { w; bits = Array.make (n_rows * w) 0 } in
  let succs = { w; bits = Array.make (n_rows * w) 0 } in
  (* one walk of the relation: write-write edges into both rows, a read's
     edges with writes into the read's rows only ({!proc_unit} adds them to
     the write rows of its unit), read-read edges within a process into
     both; reads of two processes never share a unit *)
  let from = ref 0 in
  let link v =
    let u = !from in
    let ou = all_ops.(u) and ov = all_ops.(v) in
    match (Op.is_write ou, Op.is_write ov) with
    | true, true ->
        row_add succs row.(u) local.(v);
        row_add preds row.(v) local.(u)
    | true, false -> row_add preds row.(v) local.(u)
    | false, true -> row_add succs row.(u) local.(v)
    | false, false ->
        if ou.Op.proc = ov.Op.proc then begin
          row_add succs row.(u) local.(v);
          row_add preds row.(v) local.(u)
        end
  in
  for u = 0 to n - 1 do
    from := u;
    Graph.iter_succ relation u link
  done;
  let rows_gids = Array.make n_rows 0 in
  Array.iteri (fun gid r -> rows_gids.(r) <- gid) row;
  let rows_ops = Array.map (fun gid -> all_ops.(gid)) rows_gids in
  (* every write is in every unit *)
  let rows_source =
    Array.map (fun gid -> source_of writers local gid all_ops.(gid)) rows_gids
  in
  let missing = Array.make n_procs false in
  Array.iteri
    (fun gid (o : Op.t) ->
      if Op.is_read o && rows_source.(row.(gid)) = -2 then missing.(o.proc) <- true)
    all_ops;
  let writes_of = Array.make n_procs [] and chain = Array.make n_procs [] in
  for gid = n - 1 downto 0 do
    let p = all_ops.(gid).Op.proc in
    chain.(p) <- local.(gid) :: chain.(p);
    if Op.is_write all_ops.(gid) then writes_of.(p) <- local.(gid) :: writes_of.(p)
  done;
  let var_slot_of, n_vars = var_slots rows_ops in
  {
    rows_ops;
    rows_gids;
    rows_source;
    n_writes;
    sk_preds = preds;
    sk_succs = succs;
    first_read;
    missing;
    sk_programs = Array.map Array.of_list writes_of;
    chains = Array.map Array.of_list chain;
    sk_closed = Graph.is_closed relation;
    sk_var_slot_of = var_slot_of;
    sk_n_vars = n_vars;
    sk_slot_writes = slot_writes var_slot_of n_vars rows_ops;
    sk_dup_writer =
      Array.exists
        (fun gid -> Op.is_write all_ops.(gid) && dup_write writers local gid)
        rows_gids;
  }

(* the writes' entries of [a], then [r] entries from [first] *)
let cut a n_writes first r =
  let b = Array.sub a 0 (n_writes + r) in
  Array.blit a first b n_writes r;
  b

let proc_unit sk p =
  let nw = sk.n_writes and w = sk.sk_preds.w in
  let first, r =
    if p < Array.length sk.missing then
      (sk.first_read.(p), sk.first_read.(p + 1) - sk.first_read.(p))
    else (0, 0)
  in
  let k = nw + r in
  let st = Domain.DLS.get buffers in
  st.preds_buf <- at_least st.preds_buf (k * w);
  st.succs_buf <- at_least st.succs_buf (k * w);
  let preds = { w; bits = st.preds_buf } and succs = { w; bits = st.succs_buf } in
  let rfirst = nw + first in
  copy_words sk.sk_preds.bits 0 preds.bits 0 (nw * w);
  copy_words sk.sk_preds.bits (rfirst * w) preds.bits (nw * w) (r * w);
  copy_words sk.sk_succs.bits 0 succs.bits 0 (nw * w);
  copy_words sk.sk_succs.bits (rfirst * w) succs.bits (nw * w) (r * w);
  (* each read's edges with the writes, from the writes' side *)
  for i = nw to k - 1 do
    iter_in_row (fun u -> if u < nw then row_add succs u i) preds i;
    iter_in_row (fun v -> if v < nw then row_add preds v i) succs i
  done;
  let programs =
    if r = 0 then sk.sk_programs
    else begin
      let programs = Array.copy sk.sk_programs in
      programs.(p) <- sk.chains.(p);
      programs
    end
  in
  {
    ops = cut sk.rows_ops nw rfirst r;
    gids = cut sk.rows_gids nw rfirst r;
    preds;
    succs;
    closed = sk.sk_closed;
    var_slot_of = sk.sk_var_slot_of;
    n_vars = sk.sk_n_vars;
    source = cut sk.rows_source nw rfirst r;
    missing_source = r > 0 && sk.missing.(p);
    dup_writer = sk.sk_dup_writer;
    slot_writes = sk.sk_slot_writes;
    programs;
  }

let var_slot t (o : Op.t) = t.var_slot_of.(o.var)

let read_legal t last (o : Op.t) =
  let slot = var_slot t o in
  match o.value with
  | Op.Init -> last.(slot) = -1
  | Op.Val _ ->
      last.(slot) >= 0 && Op.equal_value t.ops.(last.(slot)).Op.value o.value
