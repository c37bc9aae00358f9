type ('p, 'a) t = {
  cmp : 'p -> 'p -> int;
  mutable size : int;
  mutable keys : 'p array;
  mutable vals : 'a array;
      (* both one slot longer than the heap: the last slot holds the
         filler, the first binding ever pushed, which every slot a pop or
         [clear] vacates gets, so the queue retains no other binding that
         is not pending *)
}

let create ~cmp () = { cmp; size = 0; keys = [||]; vals = [||] }

let length t = t.size

let is_empty t = t.size = 0

let filler_slot t = Array.length t.keys - 1

let grow t key value =
  (* Seed fresh storage with the filler (the pushed binding, the first
     time) so no dummy element is needed for the polymorphic arrays. *)
  let capacity = max 8 (2 * t.size) in
  let key, value =
    if t.size = 0 then (key, value) else (t.keys.(filler_slot t), t.vals.(filler_slot t))
  in
  let keys = Array.make (capacity + 1) key in
  let vals = Array.make (capacity + 1) value in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.vals <- vals

let swap t i j =
  let k = t.keys.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.keys.(i) t.keys.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && t.cmp t.keys.(l) t.keys.(i) < 0 then l else i in
  let smallest =
    if r < t.size && t.cmp t.keys.(r) t.keys.(smallest) < 0 then r else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let push t key value =
  if t.size >= filler_slot t then grow t key value;
  t.keys.(t.size) <- key;
  t.vals.(t.size) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.vals.(0))

let pop t =
  if t.size = 0 then None
  else begin
    let k = t.keys.(0) and v = t.vals.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      t.keys.(0) <- t.keys.(n);
      t.vals.(0) <- t.vals.(n);
      sift_down t 0
    end;
    (* the tail slot moved to the root, or the root was the last binding *)
    t.keys.(n) <- t.keys.(filler_slot t);
    t.vals.(n) <- t.vals.(filler_slot t);
    Some (k, v)
  end

let pop_exn t =
  match pop t with
  | Some binding -> binding
  | None -> invalid_arg "Pqueue.pop_exn: empty queue"

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 t.size t.keys.(filler_slot t);
    Array.fill t.vals 0 t.size t.vals.(filler_slot t)
  end;
  t.size <- 0

let to_sorted_list t =
  let copy = { t with keys = Array.copy t.keys; vals = Array.copy t.vals } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some binding -> drain (binding :: acc)
  in
  drain []
