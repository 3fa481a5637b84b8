type t = { cdf : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0. then invalid_arg "Zipf.create: s must be non-negative";
  let weights = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. weights in
  let pmf = Array.map (fun w -> w /. total) weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cdf.(i) <- !acc)
    pmf;
  cdf.(n - 1) <- 1.0;
  { cdf }

let sample t rng =
  let u = Crypto.Prng.float rng in
  (* First index whose cdf covers u. *)
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) < u then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length t.cdf - 1)
