(** Agent identities of the Section 2 system model: one server and [n]
    users. (The environment agent — global clock, message queues — is
    the {!Engine} itself.) *)

type t = Server | User of int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
