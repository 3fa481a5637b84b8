(** Compact, validated patches derived from {!Myers} scripts.

    The {!Vcs} substrate stores each revision as a patch against its
    parent, exactly as RCS/CVS store ",v" files as delta chains. A
    patch validates the lines it deletes, so applying it to the wrong
    base fails loudly instead of corrupting history. *)

type op =
  | Copy of int  (** copy this many lines from the base, unchecked *)
  | Insert of string list
  | Delete of string list  (** lines removed; validated on apply *)

type t

val ops : t -> op list

val make : old_:string -> new_:string -> t
(** Minimal patch turning [old_] into [new_]. *)

val apply : t -> string -> (string, string) result
(** [apply p base] rebuilds the new text, or [Error reason] when [base]
    is not the text the patch was made against. *)

val encode : t -> string
val decode : string -> t option
