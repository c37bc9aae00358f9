(* Log-bucketed histogram for the sketch mode: bucket i holds magnitudes
   in [gamma^i, gamma^(i+1)), reported at the geometric midpoint, so any
   reconstructed value is within a factor sqrt(gamma) of the original. *)
type buckets = {
  gamma : float;
  lg : float;  (* log gamma, cached *)
  pos : (int, int) Hashtbl.t;
  neg : (int, int) Hashtbl.t;
  mutable zeros : int;
}

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable minimum : float;
  mutable maximum : float;
  mutable samples : float array;
  mutable filled : int;
  mutable sorted : bool;
  sketch : buckets option;
}

let make sketch =
  {
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    sum = 0.0;
    minimum = infinity;
    maximum = neg_infinity;
    samples = [||];
    filled = 0;
    sorted = true;
    sketch;
  }

let create () = make None

let create_sketch ?(gamma = 1.02) () =
  if gamma <= 1.0 then invalid_arg "Stats.create_sketch: gamma must be > 1";
  make
    (Some
       {
         gamma;
         lg = log gamma;
         pos = Hashtbl.create 64;
         neg = Hashtbl.create 8;
         zeros = 0;
       })

let is_sketch t = t.sketch <> None

let bump tbl k c =
  let cur = try Hashtbl.find tbl k with Not_found -> 0 in
  Hashtbl.replace tbl k (cur + c)

let bucket_of b x = int_of_float (Float.floor (log x /. b.lg))

let classify b c x =
  if x = 0.0 then b.zeros <- b.zeros + c
  else if x > 0.0 then bump b.pos (bucket_of b x) c
  else bump b.neg (bucket_of b (-.x)) c

let moments t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.minimum then t.minimum <- x;
  if x > t.maximum then t.maximum <- x

let add t x =
  moments t x;
  match t.sketch with
  | Some b -> classify b 1 x
  | None ->
      if t.filled = Array.length t.samples then begin
        let capacity = Stdlib.max 16 (2 * Array.length t.samples) in
        let samples = Array.make capacity 0.0 in
        Array.blit t.samples 0 samples 0 t.filled;
        t.samples <- samples
      end;
      t.samples.(t.filled) <- x;
      t.filled <- t.filled + 1;
      t.sorted <- false

let add_int t x = add t (float_of_int x)

let count t = t.n

let total t = t.sum

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Stats.min: empty accumulator";
  t.minimum

let max t =
  if t.n = 0 then invalid_arg "Stats.max: empty accumulator";
  t.maximum

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.filled in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.filled;
    t.sorted <- true
  end

(* Bucket representatives in ascending value order, with counts. *)
let sketch_levels b =
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  let rep i = b.gamma ** (float_of_int i +. 0.5) in
  let neg =
    keys b.neg
    |> List.sort (fun a b -> compare b a)  (* larger magnitude first *)
    |> List.map (fun i -> (-.rep i, Hashtbl.find b.neg i))
  in
  let zero = if b.zeros > 0 then [ (0.0, b.zeros) ] else [] in
  let pos =
    keys b.pos |> List.sort compare
    |> List.map (fun i -> (rep i, Hashtbl.find b.pos i))
  in
  Array.of_list (neg @ zero @ pos)

let sketch_order_stat t b k =
  let levels = sketch_levels b in
  let i = ref 0 and seen = ref 0 in
  while !i < Array.length levels - 1 && !seen + snd levels.(!i) <= k do
    seen := !seen + snd levels.(!i);
    incr i
  done;
  (* clamp into the exact range: the outermost representatives may
     overshoot the true extremes by the bucket error *)
  Float.min t.maximum (Float.max t.minimum (fst levels.(!i)))

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty accumulator";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100.0 *. float_of_int (t.n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  let at =
    match t.sketch with
    | Some b -> sketch_order_stat t b
    | None ->
        ensure_sorted t;
        fun k -> t.samples.(k)
  in
  if lo = hi then at lo
  else begin
    let w = rank -. float_of_int lo in
    (at lo *. (1.0 -. w)) +. (at hi *. w)
  end

(* Chan et al.'s pairwise update: exact merge of count/mean/M2 without
   revisiting observations. *)
let combine_moments t o =
  if o.n > 0 then begin
    if t.n = 0 then begin
      t.n <- o.n;
      t.mean <- o.mean;
      t.m2 <- o.m2
    end
    else begin
      let n1 = float_of_int t.n and n2 = float_of_int o.n in
      let delta = o.mean -. t.mean in
      let nt = n1 +. n2 in
      t.m2 <- t.m2 +. o.m2 +. (delta *. delta *. n1 *. n2 /. nt);
      t.mean <- ((t.mean *. n1) +. (o.mean *. n2)) /. nt;
      t.n <- t.n + o.n
    end;
    t.sum <- t.sum +. o.sum;
    if o.minimum < t.minimum then t.minimum <- o.minimum;
    if o.maximum > t.maximum then t.maximum <- o.maximum
  end

let absorb t o =
  match (o.sketch, t.sketch) with
  | None, _ ->
      (* exact side: replay the retained samples *)
      for i = 0 to o.filled - 1 do
        add t o.samples.(i)
      done
  | Some ob, Some tb ->
      combine_moments t o;
      if ob.gamma = tb.gamma then begin
        Hashtbl.iter (fun k c -> bump tb.pos k c) ob.pos;
        Hashtbl.iter (fun k c -> bump tb.neg k c) ob.neg;
        tb.zeros <- tb.zeros + ob.zeros
      end
      else begin
        (* different resolutions: re-bucket the representatives *)
        let rep i = ob.gamma ** (float_of_int i +. 0.5) in
        Hashtbl.iter (fun k c -> classify tb c (rep k)) ob.pos;
        Hashtbl.iter (fun k c -> classify tb c (-.rep k)) ob.neg;
        tb.zeros <- tb.zeros + ob.zeros
      end
  | Some _, None ->
      invalid_arg "Stats.merge: cannot merge a sketch into an exact accumulator"

let merge a b =
  let t =
    match (a.sketch, b.sketch) with
    | None, None -> create ()
    | Some s, _ | _, Some s -> create_sketch ~gamma:s.gamma ()
  in
  absorb t a;
  absorb t b;
  t
