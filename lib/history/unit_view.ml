module Graph = Repro_util.Graph

(* --- int-array bit rows (32 bits per word) -------------------------------- *)

let words_for k = (k + 31) lsr 5
let mem w i = w.(i lsr 5) land (1 lsl (i land 31)) <> 0
let add w i = w.(i lsr 5) <- w.(i lsr 5) lor (1 lsl (i land 31))
let remove w i = w.(i lsr 5) <- w.(i lsr 5) land lnot (1 lsl (i land 31))

let subset a b =
  let rec scan i = i < 0 || (a.(i) land lnot b.(i) = 0 && scan (i - 1)) in
  scan (Array.length a - 1)

let union_into dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) lor src.(i)
  done

(* index of the single set bit of [b] (a power of two below 2^32): de Bruijn
   multiply-and-lookup *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index b = debruijn.(((b * 0x077CB531) land 0xffffffff) lsr 27)

let iter_row f row =
  for wi = 0 to Array.length row - 1 do
    let w = ref row.(wi) in
    while !w <> 0 do
      let low = !w land (- !w) in
      f ((wi lsl 5) lor bit_index low);
      w := !w lxor low
    done
  done

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

(* --- the writer index ----------------------------------------------------- *)

type index = { all_ops : Op.t array; writers : int list array }

let index all_ops =
  let writes = Hashtbl.create 64 in
  Array.iteri
    (fun gid (o : Op.t) -> if Op.is_write o then Hashtbl.add writes (o.var, o.value) gid)
    all_ops;
  let writers_of (o : Op.t) =
    match (o.kind, o.value) with
    | Op.Read, Op.Init -> []
    | _ -> Hashtbl.find_all writes (o.var, o.value)
  in
  { all_ops; writers = Array.map writers_of all_ops }

(* --- the view ------------------------------------------------------------- *)

type t = {
  ops : Op.t array;
  gids : int array;
  preds : int array array;
  succs : int array array;
  closed : bool;
  var_slot_of : int array;
  n_vars : int;
  source : int array;
  missing_source : bool;
  dup_writer : bool;
}

let make { all_ops; writers } ~subset ~relation =
  let gids = Array.of_list subset in
  let k = Array.length gids in
  let local_of = Array.make (Array.length all_ops) (-1) in
  Array.iteri (fun i gid -> local_of.(gid) <- i) gids;
  let ops = Array.map (fun gid -> all_ops.(gid)) gids in
  let nw = words_for k in
  let preds = Array.init k (fun _ -> Array.make nw 0) in
  let succs = Array.init k (fun _ -> Array.make nw 0) in
  (* one closure for the whole walk: [from] carries the current op *)
  let from = ref 0 in
  let link succ_gid =
    let j = local_of.(succ_gid) in
    if j >= 0 then begin
      add succs.(!from) j;
      add preds.(j) !from
    end
  in
  for i = 0 to k - 1 do
    from := i;
    Graph.iter_succ relation gids.(i) link
  done;
  let max_var = Array.fold_left (fun m (o : Op.t) -> Stdlib.max m o.var) (-1) ops in
  let var_slot_of = Array.make (max_var + 1) (-1) in
  let n_vars = ref 0 in
  Array.iter
    (fun (o : Op.t) ->
      if var_slot_of.(o.var) < 0 then begin
        var_slot_of.(o.var) <- !n_vars;
        incr n_vars
      end)
    ops;
  (* a read's source is its value's writer in the unit; of two, the one
     later in subset order *)
  let missing_source = ref false and dup_writer = ref false in
  let source =
    Array.mapi
      (fun i (o : Op.t) ->
        let gid = gids.(i) in
        match o.kind with
        | Op.Write ->
            if List.exists (fun w -> w <> gid && local_of.(w) >= 0) writers.(gid)
            then dup_writer := true;
            -2
        | Op.Read -> (
            match o.value with
            | Op.Init -> -1
            | Op.Val _ ->
                let s =
                  List.fold_left (fun s w -> Stdlib.max s local_of.(w)) (-1) writers.(gid)
                in
                if s < 0 then begin
                  missing_source := true;
                  -2
                end
                else s))
      ops
  in
  {
    ops;
    gids;
    preds;
    succs;
    closed = Graph.is_closed relation;
    var_slot_of;
    n_vars = !n_vars;
    source;
    missing_source = !missing_source;
    dup_writer = !dup_writer;
  }

let var_slot t (o : Op.t) = t.var_slot_of.(o.var)

let read_legal t last (o : Op.t) =
  let slot = var_slot t o in
  match o.value with
  | Op.Init -> last.(slot) = -1
  | Op.Val _ ->
      last.(slot) >= 0 && Op.equal_value t.ops.(last.(slot)).Op.value o.value
