(* Order statistics shared by the runner and [compare].

   Quartiles follow Python's [statistics.quantiles(data, n=4)] (the
   default "exclusive" method), so a spread computed here matches the
   one a regression gate computes from the same values. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let median values =
  match sorted values with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(data, n=4, method="exclusive")]; needs at
   least two values. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then None
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    Some (q 1, q 2, q 3)
  end

let iqr values =
  match quartiles values with Some (q1, _, q3) -> q3 -. q1 | None -> 0.

(* IQR as a share of the median — the run-to-run spread a bound is
   compared against. *)
let rel_spread values =
  let m = median values in
  if Float.is_nan m || m = 0. then 0. else iqr values /. Float.abs m

(* Nearest-rank percentile over an ascending array. [None] when fewer
   than ten samples lie beyond it: a tail percentile resting on fewer
   is not reported. *)
let percentile sorted_samples p =
  let n = Array.length sorted_samples in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  let rank = max 1 (min n rank) in
  if n = 0 || n - rank < 10 then None else Some sorted_samples.(rank - 1)

(* Growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len
  let get t i = t.data.(i)

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end
