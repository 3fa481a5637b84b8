(** Deterministic pseudo-random generator built on the ChaCha20 block
    function (RFC 8439 core, used here as a CSPRNG, not a cipher).

    Every randomised component in the repository — key generation,
    workload generation, adversary scheduling, property tests that need
    auxiliary entropy — draws from a [Prng.t] seeded from a string, so
    all experiments and simulations are exactly replayable. *)

type t

val create : seed:string -> t
(** [create ~seed] derives a 256-bit key from [seed] with SHA-256 and
    positions the stream at block 0. Equal seeds yield equal streams. *)

val split : t -> label:string -> t
(** [split g ~label] derives an independent generator keyed by the
    parent seed and [label], without disturbing the parent's stream.
    Used to hand each agent / component its own replayable stream. *)

val bytes : t -> int -> string
(** [bytes g n] returns the next [n] bytes of the stream. *)

val byte : t -> int
(** Next byte, as 0..255. *)

val int : t -> int -> int
(** [int g bound] is uniform in [0, bound). Uses rejection sampling, so
    it is exactly uniform.
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1), with 53 bits of precision. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used for
    think-time and offline-period generation in workloads. *)
