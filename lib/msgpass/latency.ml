module Rng = Repro_util.Rng

type t =
  | Constant of int
  | Uniform of { lo : int; hi : int }
  | Exponential of { mean : float; cap : int }
  | Per_link of (src:int -> dst:int -> t)

let constant d =
  if d < 0 then invalid_arg "Latency.constant: negative latency";
  Constant d

let uniform ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Latency.uniform: bad range";
  Uniform { lo; hi }

let exponential ~mean ~cap =
  if mean <= 0.0 || cap < 1 then invalid_arg "Latency.exponential: bad parameters";
  Exponential { mean; cap }

let lan = Uniform { lo = 1; hi = 5 }

let wan = Exponential { mean = 50.0; cap = 500 }

let per_link f = Per_link f

let rec sample t rng ~src ~dst =
  match t with
  | Constant d -> d
  | Uniform { lo; hi } -> Rng.int_in rng lo hi
  | Exponential { mean; cap } ->
      let d = int_of_float (Float.ceil (Rng.exponential rng mean)) in
      Int.max 1 (Int.min cap d)
  | Per_link f -> sample (f ~src ~dst) rng ~src ~dst
