(** Revision history of a single file, stored as a forward delta chain
    (revision 1 is a delta against the empty file), the way RCS/CVS
    `,v` archives store revisions.

    In the Trusted CVS mapping, the {e value} stored in the
    authenticated database under a file's path is the encoded history
    of that file. One CVS command therefore touches exactly one
    database item, matching the paper's model where `checkout` is a
    read request and `commit` an update request on a database of data
    items (Section 2.1, "CVS Operations"). *)

type revision = {
  number : int;  (** 1-based; revision [n] is built on revision [n-1] *)
  author : int;  (** user id of the committer *)
  round : int;  (** simulator round at which the commit happened *)
  log : string;  (** commit message *)
  patch : Vdiff.Patch.t;  (** delta from revision [number - 1] *)
}

type t

val empty : t
val head_revision : t -> int
(** 0 for an empty history. *)

val head_content : t -> string
(** Content at the head revision; [""] for an empty history. *)

val content_at : t -> int -> (string, string) result
(** [content_at h n] replays deltas 1..n. [content_at h 0 = Ok ""].
    [Error _] if [n] is out of range or the chain is corrupt. *)

val commit : t -> author:int -> round:int -> log:string -> content:string -> t
(** Append a revision whose content is [content]. *)

val log_entries : t -> (int * int * int * string) list
(** (revision, author, round, message), newest first — `cvs log`. *)

val annotate : t -> (string * int) list
(** For each line of the head content, the revision that introduced it
    (`cvs annotate`). *)

val encode : t -> string
val decode : string -> t option
