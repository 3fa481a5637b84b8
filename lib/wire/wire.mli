(** Minimal binary encoding helpers shared by every wire format in the
    repository (verification objects aside, which predate this module's
    callers and carry their own compact format).

    All integers are big-endian. Strings are length-framed with a
    32-bit header. Decoding is strict: any overrun raises {!Underflow},
    and decoders are expected to convert that to an option/result at
    their API boundary. *)

exception Underflow

module W : sig
  type t
  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit
  val str : t -> string -> unit
  (** Length-framed string. *)

  val raw : t -> string -> unit
  (** Unframed bytes (fixed-size fields). *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** u32 count followed by each element written by the callback. *)

  val contents : t -> string
end

module R : sig
  type t
  val of_string : string -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val str : t -> string
  val raw : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val at_end : t -> bool
end

val decode : string -> (R.t -> 'a) -> 'a option
(** Run a decoder; [None] on [Underflow] or any [Invalid_argument] /
    [Failure] it raises. Fails (returns [None]) unless the decoder
    consumes the entire input. *)
