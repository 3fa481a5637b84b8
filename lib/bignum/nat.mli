(** Arbitrary-precision natural numbers, from scratch.

    The paper assumes a PKI with digital signatures (RFC 2459); since
    the sealed environment has no bignum or crypto packages, this module
    provides the arithmetic substrate for the RSA implementation in
    {!Rsa}. Numbers are non-negative; operations that would go negative
    raise.

    Representation: little-endian limb array in base 2^26 with no
    most-significant zero limbs (so representations are canonical and
    structural equality coincides with numeric equality). Products of
    two limbs fit comfortably in OCaml's 63-bit native int. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int option
(** [to_int n] is [Some i] if [n] fits in a native int. *)

val of_bytes_be : string -> t
(** Big-endian bytes to natural (leading zero bytes allowed). *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Minimal big-endian encoding, left-padded with zero bytes to
    [pad_to] if given.
    @raise Invalid_argument if the value does not fit in [pad_to]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool
val is_even : t -> bool

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val pred : t -> t
(** @raise Invalid_argument on zero. *)

val mul : t -> t -> t
(** Schoolbook below a limb-count threshold, Karatsuba above it. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth TAOCP vol. 2 Algorithm 4.3.1 D).
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** [mod_pow ~base ~exp ~modulus] is [base^exp mod modulus] by
    left-to-right binary exponentiation.
    @raise Division_by_zero if [modulus] is zero. *)

val mod_inverse : t -> modulus:t -> t option
(** [mod_inverse a ~modulus] is [Some x] with [a*x ≡ 1 (mod modulus)]
    when [gcd a modulus = 1], else [None]. *)

val random : Crypto.Prng.t -> bits:int -> t
(** Uniform value with at most [bits] bits. *)

val random_below : Crypto.Prng.t -> t -> t
(** Uniform in [0, bound). @raise Invalid_argument if bound is zero. *)
