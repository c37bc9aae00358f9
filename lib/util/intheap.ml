type 'a t = {
  mutable size : int;
  mutable keys : int array;
  mutable vals : 'a array;
      (* longer than [keys]: the slot at [Array.length keys] holds the
         filler, the first value ever pushed, which every slot a pop or
         [clear] vacates gets, so the heap retains no other value that is
         not pending *)
}

let create () = { size = 0; keys = [||]; vals = [||] }

let length t = t.size

let is_empty t = t.size = 0

let filler t = t.vals.(Array.length t.keys)

let grow t value =
  (* Seed fresh value storage with the pushed element so no dummy is needed
     for the polymorphic array; keys are plain ints.  A full heap doubles by
     appending its values to themselves: [Array.make] past the minor heap's
     block size with a young seed (a just-sent message) forces a minor
     collection, [Array.append] allocates in the major heap directly.  The
     copied upper half is then overwritten with the filler. *)
  let capacity = max 16 (2 * Array.length t.keys) in
  let keys = Array.make capacity 0 in
  Array.blit t.keys 0 keys 0 t.size;
  let vals =
    if t.size = 0 then Array.make (capacity + 1) value
    else begin
      let filler = filler t in
      let vals = Array.append t.vals t.vals in
      Array.fill vals t.size (Array.length vals - t.size) filler;
      vals
    end
  in
  t.keys <- keys;
  t.vals <- vals

(* Sift loops move the hole instead of swapping, so each step is two array
   writes and an unboxed int comparison — no closure dispatch, no boxing. *)
let sift_up t i key value =
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < t.keys.(parent) then begin
      t.keys.(!i) <- t.keys.(parent);
      t.vals.(!i) <- t.vals.(parent);
      i := parent
    end
    else continue_ := false
  done;
  t.keys.(!i) <- key;
  t.vals.(!i) <- value

let sift_down t key value =
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= t.size then continue_ := false
    else begin
      let r = l + 1 in
      let child = if r < t.size && t.keys.(r) < t.keys.(l) then r else l in
      if t.keys.(child) < key then begin
        t.keys.(!i) <- t.keys.(child);
        t.vals.(!i) <- t.vals.(child);
        i := child
      end
      else continue_ := false
    end
  done;
  t.keys.(!i) <- key;
  t.vals.(!i) <- value

let push t key value =
  if t.size = Array.length t.keys then grow t value;
  let i = t.size in
  t.size <- t.size + 1;
  sift_up t i key value

let min_key t =
  if t.size = 0 then invalid_arg "Intheap.min_key: empty heap";
  t.keys.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Intheap.pop_min: empty heap";
  let v = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t t.keys.(n) t.vals.(n);
  (* the tail slot moved into the hole, or the root was the last value *)
  t.vals.(n) <- filler t;
  v

let pop t =
  if t.size = 0 then None
  else
    let k = t.keys.(0) in
    let v = pop_min t in
    Some (k, v)

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.vals.(0))

let clear t =
  if t.size > 0 then Array.fill t.vals 0 t.size (filler t);
  t.size <- 0

let iter t f =
  for i = 0 to t.size - 1 do
    f t.keys.(i) t.vals.(i)
  done

let to_sorted_list t =
  let copy = { size = t.size; keys = Array.copy t.keys; vals = Array.copy t.vals } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some binding -> drain (binding :: acc)
  in
  drain []
