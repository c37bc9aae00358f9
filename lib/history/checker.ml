module Pool = Repro_util.Pool

type criterion =
  | Sequential
  | Causal
  | Semi_causal
  | Lazy_causal
  | Lazy_semi_causal
  | Pram
  | Slow
  | Cache

let all_criteria =
  [ Sequential; Causal; Semi_causal; Lazy_causal; Lazy_semi_causal; Pram; Cache; Slow ]

let criterion_name = function
  | Sequential -> "sequential"
  | Causal -> "causal"
  | Semi_causal -> "semi-causal"
  | Lazy_causal -> "lazy-causal"
  | Lazy_semi_causal -> "lazy-semi-causal"
  | Pram -> "pram"
  | Slow -> "slow"
  | Cache -> "cache"

type verdict = Consistent | Inconsistent | Undecidable of History.rf_error

let verdict_name = function
  | Consistent -> "consistent"
  | Inconsistent -> "VIOLATION"
  | Undecidable _ -> "undecidable"

module V = Unit_view

(* --- packed state keys ---------------------------------------------------- *)

(* A search state is (placed set, last write per variable slot).  The memo
   key packs both into one [int array]: the placed bit words verbatim,
   then the last-write slots, 16 bits each, three per word (a slot stores
   [w + 1] ∈ [0, k], so 16 bits suffice whenever [k ≤ 0xffff]; larger
   subsets fall back to one slot per word, keeping the encoding injective
   for every [k]). *)

let slots_fit_16 k = k <= 0xffff

let slot_words_for ~k n_vars = if slots_fit_16 k then (n_vars + 2) / 3 else n_vars

(* Fill [scratch] (of length [n_placed_words + slot_words]) from the
   current state; allocation-free. *)
let pack_into ~k ~n_placed_words scratch placed last_write =
  Array.blit placed 0 scratch 0 n_placed_words;
  let n_vars = Array.length last_write in
  if slots_fit_16 k then begin
    Array.fill scratch n_placed_words ((n_vars + 2) / 3) 0;
    for j = 0 to n_vars - 1 do
      let word = n_placed_words + (j / 3) and shift = 16 * (j mod 3) in
      scratch.(word) <- scratch.(word) lor ((last_write.(j) + 1) lsl shift)
    done
  end
  else
    for j = 0 to n_vars - 1 do
      scratch.(n_placed_words + j) <- last_write.(j) + 1
    done

(* Open-addressing set of packed keys.  [add_if_absent] hashes the caller's
   scratch array (FNV-1a over the words) and compares against stored keys
   in place: the probe path allocates nothing; only a genuinely new state
   pays one [Array.copy]. *)
module Packed_tbl = struct
  type t = { mutable keys : int array array; mutable count : int }

  let empty_key : int array = [||]

  (* physical [empty_key] marks free buckets; real keys are never empty
     (k = 0 histories short-circuit before the search) *)

  let create () = { keys = Array.make 64 empty_key; count = 0 }

  (* 64-bit FNV-1a offset basis truncated to OCaml's int range *)
  let fnv_offset = 0x0bf29ce484222325
  let fnv_prime = 0x100000001b3

  (* FNV-1a folded over whole words mixes upward only (the low bits of
     the product never feel the high bits), and open addressing indexes by
     the LOW bits — finalize with an avalanche step (splitmix64-style) so
     single-bit key differences reach the bucket index. *)
  let hash key =
    let h = ref fnv_offset in
    for i = 0 to Array.length key - 1 do
      h := (!h lxor key.(i)) * fnv_prime
    done;
    let h = !h in
    let h = h lxor (h lsr 31) in
    let h = h * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 29) in
    h land max_int

  let key_equal a b =
    let rec eq i = i < 0 || (a.(i) = b.(i) && eq (i - 1)) in
    Array.length a = Array.length b && eq (Array.length a - 1)

  let resize t =
    let old = t.keys in
    t.keys <- Array.make (2 * Array.length old) empty_key;
    let mask = Array.length t.keys - 1 in
    Array.iter
      (fun key ->
        if key != empty_key then begin
          let rec probe i =
            if t.keys.(i) == empty_key then t.keys.(i) <- key
            else probe ((i + 1) land mask)
          in
          probe (hash key land mask)
        end)
      old

  let add_if_absent t scratch =
    if 2 * (t.count + 1) > Array.length t.keys then resize t;
    let mask = Array.length t.keys - 1 in
    let rec probe i =
      let stored = t.keys.(i) in
      if stored == empty_key then begin
        t.keys.(i) <- Array.copy scratch;
        t.count <- t.count + 1;
        true
      end
      else if key_equal stored scratch then false
      else probe ((i + 1) land mask)
    in
    probe (hash scratch land mask)
end

(* --- serialization search ------------------------------------------------ *)

let search_view (view : V.t) =
  let k = Array.length view.ops in
  if k = 0 then Some []
  else begin
    let nw = view.preds.V.w in
    let placed = Array.make nw 0 in
    let last_write = Array.make view.n_vars (-1) in
    let order = ref [] in
    let memo = Packed_tbl.create () in
    let scratch = Array.make (nw + slot_words_for ~k view.n_vars) 0 in
    let ready i = (not (V.mem placed i)) && V.row_subset view.preds i placed in
    let place i =
      V.add placed i;
      order := i :: !order;
      if Op.is_write view.ops.(i) then last_write.(V.var_slot view view.ops.(i)) <- i
    in
    (* Greedily place every ready, legal read: never harmful (a read leaves
       the legality state untouched, so any completion with it later also
       works with it now). Returns the list of reads placed, for rollback. *)
    let place_ready_reads () =
      let placed_now = ref [] in
      let progress = ref true in
      while !progress do
        progress := false;
        for i = 0 to k - 1 do
          if
            ready i
            && Op.is_read view.ops.(i)
            && V.read_legal view last_write view.ops.(i)
          then begin
            place i;
            placed_now := i :: !placed_now;
            progress := true
          end
        done
      done;
      !placed_now
    in
    let unplace_reads reads =
      List.iter
        (fun i ->
          V.remove placed i;
          order := List.tl !order)
        reads
    in
    (* A pending read whose legality window has closed for good dooms the
       whole branch: Init-reads once their variable has been written,
       sourced reads once their source write has been overwritten.  (The
       greedy pass has already taken every ready legal read, so any
       unplaced read is currently illegal or not ready.) *)
    let doomed () =
      let rec scan i =
        if i >= k then false
        else if V.mem placed i || Op.is_write view.ops.(i) then scan (i + 1)
        else begin
          let slot = V.var_slot view view.ops.(i) in
          match view.source.(i) with
          | -1 -> last_write.(slot) <> -1 || scan (i + 1)
          | -2 -> true (* no candidate writer at all *)
          | w -> (V.mem placed w && last_write.(slot) <> w) || scan (i + 1)
        end
      in
      scan 0
    in
    let state_unvisited () =
      pack_into ~k ~n_placed_words:nw scratch placed last_write;
      Packed_tbl.add_if_absent memo scratch
    in
    let rec search n_placed =
      let reads = place_ready_reads () in
      let n_placed = n_placed + List.length reads in
      let result =
        if n_placed = k then true
        else if doomed () then false
        else if not (state_unvisited ()) then false
        else begin
          (* branch over ready writes, trying sources of pending reads
             first: they are the only writes that unblock progress *)
          let wanted = Array.make k false in
          for i = 0 to k - 1 do
            if
              (not (V.mem placed i))
              && Op.is_read view.ops.(i)
              && view.source.(i) >= 0
            then wanted.(view.source.(i)) <- true
          done;
          let candidates = ref [] in
          for i = k - 1 downto 0 do
            if ready i && Op.is_write view.ops.(i) then candidates := i :: !candidates
          done;
          let preferred, rest = List.partition (fun i -> wanted.(i)) !candidates in
          let rec try_writes = function
            | [] -> false
            | i :: tl ->
                let slot = V.var_slot view view.ops.(i) in
                let saved = last_write.(slot) in
                place i;
                if search (n_placed + 1) then true
                else begin
                  V.remove placed i;
                  order := List.tl !order;
                  last_write.(slot) <- saved;
                  try_writes tl
                end
          in
          try_writes (preferred @ rest)
        end
      in
      if not result then unplace_reads reads;
      result
    in
    if search 0 then Some (List.rev_map (fun i -> view.gids.(i)) !order) else None
  end

let index_of h = V.index (History.ops h) ~writers:(History.writers h)

let find_serialization h ~subset ~relation =
  search_view (V.make (index_of h) ~subset ~relation)

let validate_serialization h ~subset ~relation ~order =
  let sorted_subset = List.sort_uniq compare subset in
  let sorted_order = List.sort_uniq compare order in
  List.length subset = List.length sorted_subset
  && List.length order = List.length sorted_order
  && sorted_subset = sorted_order
  && Orders.respects ~order relation
  &&
  (* legality *)
  let last_value = Hashtbl.create 16 in
  List.for_all
    (fun gid ->
      let o = History.op h gid in
      match o.Op.kind with
      | Op.Write ->
          Hashtbl.replace last_value o.Op.var o.Op.value;
          true
      | Op.Read -> (
          match Hashtbl.find_opt last_value o.Op.var with
          | None -> o.Op.value = Op.Init
          | Some v -> Op.equal_value v o.Op.value))
    order

(* --- engine selection ----------------------------------------------------- *)

type engine = Search | Saturation

(* With REPRO_CHECK_ORACLE set, every saturation-engine decision is
   re-derived by the search and a disagreement aborts the process: the
   polynomial front-end is sound by construction, and this flag (plus the
   qcheck parity suite) is the standing proof obligation. *)
let oracle = lazy (Sys.getenv_opt "REPRO_CHECK_ORACLE" <> None)

(* Decide one unit: {!Saturation.decide} answers directly when it can
   prove the verdict, and punts to the exact search otherwise, so both
   engines decide identically on every input.  Both run on one view.  The
   oracle's search runs on [reference ()], the unit as {!Unit_view.make}
   builds it, so it checks the view's construction as well; [name] says
   which unit disagreed. *)
let decide_view ~engine ~name view reference =
  let search () = search_view view <> None in
  let verdict =
    match engine with
    | Search -> search ()
    | Saturation -> (
        match Saturation.decide view with
        | Saturation.Consistent -> true
        | Saturation.Inconsistent -> false
        | Saturation.Unknown -> search ())
  in
  (if engine = Saturation && Lazy.force oracle then
     let k = Array.length view.V.ops in
     let expected = search_view (reference ()) <> None in
     if expected <> verdict then
       failwith
         (Printf.sprintf
            "Checker: engine mismatch on %s (%d ops): saturation=%b search=%b"
            (name ()) k verdict expected));
  verdict

let serializable ?(engine = Saturation) h ~subset ~relation =
  let view = V.make (index_of h) ~subset ~relation in
  decide_view ~engine ~name:(fun () -> "a unit") view (fun () -> view)

(* --- criterion decomposition --------------------------------------------- *)

type unit_key = Whole | Proc of int | Var of int | Proc_var of int * int

let unit_key_name = function
  | Whole -> "all"
  | Proc p -> Printf.sprintf "p%d" p
  | Var x -> Printf.sprintf "x%d" x
  | Proc_var (p, x) -> Printf.sprintf "p%d/x%d" p x

(* The relation of a criterion decided one unit per process: that
   process's ops plus every write, or, under the saturation engine, its
   reads plus every write of a variable it reads. *)
let process_relation rc = function
  | Causal -> Some (Relcache.causal rc)
  | Semi_causal -> Some (Relcache.semi_causal rc)
  | Lazy_causal -> Some (Relcache.lazy_causal rc)
  | Lazy_semi_causal -> Some (Relcache.lazy_semi_causal rc)
  | Pram -> Some (Relcache.pram rc)
  | Sequential | Slow | Cache -> None

(* Each criterion is a conjunction of (subset, relation) serialization
   units; [units] returns them with a diagnostic key.  All relations and
   operation indexes come from the per-history cache, so an 8-criteria
   sweep over one history computes each of them exactly once. *)
let units criterion rc =
  let h = Relcache.history rc in
  match criterion with
  | Sequential -> [ (Whole, Relcache.all_ids rc, Relcache.program_order rc) ]
  | Causal | Semi_causal | Lazy_causal | Lazy_semi_causal | Pram ->
      let relation = Option.get (process_relation rc criterion) in
      List.init (History.n_procs h) (fun p -> (Proc p, Relcache.proc_ids rc p, relation))
  | Cache ->
      let relation = Relcache.program_order rc in
      History.vars h |> List.map (fun x -> (Var x, Relcache.var_ids rc x, relation))
  | Slow ->
      let relation = Relcache.slow rc in
      List.concat_map
        (fun p ->
          History.vars h
          |> List.filter_map (fun x ->
                 match Relcache.proc_var_ids rc p x with
                 | [] -> None
                 | subset -> Some (Proc_var (p, x), subset, relation)))
        (List.init (History.n_procs h) Fun.id)

let check_with ~for_all ?(engine = Saturation) criterion rc =
  match Relcache.read_from rc with
  | Error (History.Dangling_read _) -> Inconsistent
  | Error (History.Ambiguous_read _ as e) -> Undecidable e
  | Ok _ ->
      (* forced here, before the units may reach other domains *)
      let index = Relcache.index rc in
      let name key () =
        Printf.sprintf "%s unit %s" (criterion_name criterion) (unit_key_name key)
      in
      let decisions =
        match (engine, process_relation rc criterion) with
        | Saturation, Some relation ->
            (* each unit is its process's reads and the writes of the
               variables they read; the tables they are cut from are built
               here, once per history *)
            let skeleton = V.skeleton index relation in
            List.init (History.n_procs (Relcache.history rc)) (fun p () ->
                let view = V.proc_unit skeleton p in
                decide_view ~engine ~name:(name (Proc p)) view (fun () ->
                    let subset = List.sort compare (Array.to_list view.V.gids) in
                    V.make index ~subset ~relation))
        | _ ->
            List.map
              (fun (key, subset, relation) () ->
                let view = V.make index ~subset ~relation in
                decide_view ~engine ~name:(name key) view (fun () -> view))
              (units criterion rc)
      in
      let consistent = for_all (fun decide -> decide ()) decisions in
      if consistent then Consistent else Inconsistent

let check_cached ?engine rc criterion =
  check_with ~for_all:List.for_all ?engine criterion rc

let check ?engine criterion h =
  check_with ~for_all:List.for_all ?engine criterion (Relcache.create h)

let check_par ?pool ?engine criterion h =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  check_with
    ~for_all:(fun pred l -> Pool.for_all pool pred l)
    ?engine criterion (Relcache.create h)

let is_consistent criterion h =
  match check criterion h with
  | Consistent -> true
  | Inconsistent -> false
  | Undecidable e ->
      invalid_arg
        (Format.asprintf "Checker.is_consistent: %a" History.pp_rf_error e)

let witness criterion h =
  let rc = Relcache.create h in
  match Relcache.read_from rc with
  | Error _ -> None
  | Ok _ ->
      let index = Relcache.index rc in
      let rec collect acc = function
        | [] -> Some (List.rev acc)
        | (key, subset, relation) :: rest -> (
            match search_view (V.make index ~subset ~relation) with
            | None -> None
            | Some order -> collect ((key, order) :: acc) rest)
      in
      collect [] (units criterion rc)

module Private = struct
  let units = units

  let pack_state ~k ~placed ~last_write =
    if k < 0 then invalid_arg "pack_state: negative k";
    let nw = V.words_for k in
    let words = Array.make nw 0 in
    List.iter
      (fun i ->
        if i < 0 || i >= k then invalid_arg "pack_state: placed index out of range";
        V.add words i)
      placed;
    let scratch = Array.make (nw + slot_words_for ~k (Array.length last_write)) 0 in
    pack_into ~k ~n_placed_words:nw scratch words last_write;
    scratch
end
