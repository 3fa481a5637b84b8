(** Zipf-distributed sampling over ranks 0..n-1.

    CVS file popularity is heavily skewed — a few headers and build
    files receive most commits while the long tail is rarely touched —
    so workload generation samples files from a Zipf distribution with
    exponent [s] ([s = 0] degenerates to uniform). Sampling uses a
    precomputed CDF and binary search. *)

type t

val create : n:int -> s:float -> t
(** @raise Invalid_argument if [n <= 0] or [s < 0]. *)

val sample : t -> Crypto.Prng.t -> int
