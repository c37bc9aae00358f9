(* A ring of [slots] per-tick FIFO slots holds the events pushed less than
   [slots] ticks past the window base [cur]; later events go to [far].  A
   pop takes the earlier of the ring's first event and [far]'s, and [far]'s
   on a tie: an event went to [far] only while its tick was still outside
   the window, and [cur] never goes back, so every far push at a tick came
   before every ring push there.

   Every ring entry lives in one pooled pair of arrays: entry i holds
   [vals.(i)] and links to [next.(i)], the next entry of its slot or, when
   free, of the free list.  A slot is a circular list reached through its
   last entry, whose successor is the slot's head, so one int per slot
   finds both ends. *)

let slot_bits = 6

let slots = 1 lsl slot_bits

let slot_mask = slots - 1

(* Far keys pack (time, far push count) into one immediate int: 31 bits of
   time above 31 bits of count, compared with one unboxed [<].  The first
   far event whose time or count leaves that range moves the far events
   onto [wide], a tuple-keyed queue with the identical order. *)
let time_bits = 31

let packed_limit = 1 lsl time_bits

let seq_mask = packed_limit - 1

type 'a t = {
  mutable cur : int;
  mutable first : int;
      (* while the ring is nonempty: cur <= first <= its earliest tick *)
  mutable last : int array; (* per slot: its last entry, or -1 when empty *)
  mutable next : int array;
  mutable vals : 'a array;
  mutable free : int; (* first free entry, or -1 *)
  mutable near : int; (* entries in the ring *)
  far : 'a Intheap.t; (* key: (time lsl 31) lor seq *)
  mutable wide : (int * int, 'a) Pqueue.t option;
      (* overflow fallback: explicit (time, seq) keys, same order *)
  mutable seq : int; (* far pushes so far *)
}

let key_compare (t1, s1) (t2, s2) =
  let c = compare (t1 : int) t2 in
  if c <> 0 then c else compare (s1 : int) s2

let create () =
  {
    cur = 0;
    first = 0;
    last = [||];
    next = [||];
    vals = [||];
    free = -1;
    near = 0;
    far = Intheap.create ();
    wide = None;
    seq = 0;
  }

let time t = t.cur

let far_length t =
  match t.wide with Some q -> Pqueue.length q | None -> Intheap.length t.far

let length t = t.near + far_length t

let is_empty t = t.near = 0 && far_length t = 0

(* Double the pool, chaining the new entries into the free list.  Entry 0
   is never handed out: it keeps the first value pushed, which [take]
   writes over a popped entry and [grow] over new ones, so the pool
   retains no other value that is not pending.  Values double by
   appending the array to itself, as [Intheap] does: [Array.make] past the
   minor heap's block size with a young seed (a just-sent message) forces
   a minor collection.  The slots come with the first entry, so a queue
   that is never used costs a few words. *)
let grow t value =
  let old = Array.length t.next in
  let capacity = Stdlib.max 16 (2 * old) in
  let next = Array.make capacity (-1) in
  Array.blit t.next 0 next 0 old;
  for i = old to capacity - 2 do
    next.(i) <- i + 1
  done;
  t.next <- next;
  if old = 0 then begin
    t.last <- Array.make slots (-1);
    t.vals <- Array.make capacity value;
    t.free <- 1
  end
  else begin
    let vals = Array.append t.vals t.vals in
    Array.fill vals old old vals.(0);
    t.vals <- vals;
    t.free <- old
  end

let append t time value =
  if t.free < 0 then grow t value;
  if t.near = 0 || time < t.first then t.first <- time;
  let slot = time land slot_mask in
  let i = t.free in
  t.free <- t.next.(i);
  t.vals.(i) <- value;
  let last = t.last.(slot) in
  if last < 0 then t.next.(i) <- i
  else begin
    t.next.(i) <- t.next.(last);
    t.next.(last) <- i
  end;
  t.last.(slot) <- i;
  t.near <- t.near + 1

(* Unlink a nonempty slot's head and return its value. *)
let take t slot =
  let last = t.last.(slot) in
  let head = t.next.(last) in
  if head = last then t.last.(slot) <- -1 else t.next.(last) <- t.next.(head);
  t.next.(head) <- t.free;
  t.free <- head;
  t.near <- t.near - 1;
  let value = t.vals.(head) in
  t.vals.(head) <- t.vals.(0);
  value

(* The ring's earliest tick; the ring must be nonempty.  Every ring entry
   lies in [cur, cur + slots), so the scan meets no other tick's slot. *)
let rec near_min t =
  if t.last.(t.first land slot_mask) >= 0 then t.first
  else begin
    t.first <- t.first + 1;
    near_min t
  end

let widen t =
  let q = Pqueue.create ~cmp:key_compare () in
  Intheap.iter t.far (fun key value ->
      Pqueue.push q (key lsr time_bits, key land seq_mask) value);
  Intheap.clear t.far;
  t.wide <- Some q;
  q

let push_far t time value =
  t.seq <- t.seq + 1;
  match t.wide with
  | Some q -> Pqueue.push q (time, t.seq) value
  | None ->
      if time < packed_limit && t.seq < packed_limit then
        Intheap.push t.far ((time lsl time_bits) lor t.seq) value
      else Pqueue.push (widen t) (time, t.seq) value

(* [time - t.cur] rather than [time < t.cur + slots]: times run up to
   [max_int], where the sum would wrap. *)
let push t time value =
  if time < t.cur then invalid_arg "Eventq.push: time before the window";
  if time - t.cur < slots then append t time value else push_far t time value

(* Earliest far time; [far] must be nonempty. *)
let far_min t =
  match t.wide with
  | Some q -> ( match Pqueue.peek q with Some ((time, _), _) -> time | None -> assert false)
  | None -> Intheap.min_key t.far lsr time_bits

let pop_far t =
  t.cur <- far_min t;
  match t.wide with Some q -> snd (Pqueue.pop_exn q) | None -> Intheap.pop_min t.far

(* Whether the earliest event is far; the queue must be nonempty. *)
let far_first t = t.near = 0 || (far_length t > 0 && far_min t <= near_min t)

let pop t =
  if is_empty t then invalid_arg "Eventq.pop: empty queue"
  else if far_first t then pop_far t
  else begin
    let time = near_min t in
    t.cur <- time;
    take t (time land slot_mask)
  end

let min_time t =
  if is_empty t then invalid_arg "Eventq.min_time: empty queue"
  else if far_first t then far_min t
  else near_min t
