(** A user's local checkout — the sandbox directory a CVS user edits.

    A workspace remembers, per file, the revision and content it was
    checked out at plus any local edits. It produces commit payloads
    and brings local files up to date against a newer
    history with the usual CVS merge-on-update behaviour (a merge that
    cannot apply cleanly is reported as a conflict instead of silently
    corrupting the file). *)

type file_state = {
  base_revision : int;  (** revision the checkout was taken at *)
  base_content : string;
  local_content : string;  (** current (possibly edited) content *)
}

type t

val empty : t

val checkout : t -> path:string -> File_history.t -> t
(** Record a fresh checkout of the head revision. Discards local edits
    to that path. *)

val edit : t -> path:string -> content:string -> t
(** Overwrite the local content of a checked-out file.
    @raise Not_found if the path was never checked out. *)

val find : t -> string -> file_state option

type update_result =
  | Updated of t  (** local edits merged onto the new head *)
  | Conflict of { path : string; reason : string }

val update : t -> path:string -> File_history.t -> update_result
(** CVS `update`: rebase local edits onto the history head by applying
    the upstream delta to the local file; delta context that no longer
    matches means a conflict. *)

val commit_content : t -> path:string -> string option
(** Local content to commit for a path ([None] if not checked out). *)
