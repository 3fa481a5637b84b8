(** Line-based diff via Myers' O(ND) algorithm ("An O(ND) difference
    algorithm and its variations", 1986) — the same algorithm family
    CVS/RCS use to store revision deltas.

    The CVS substrate stores each file revision as a delta against its
    parent; this module computes and applies those deltas. *)

type line_op =
  | Keep of string  (** line present in both sides *)
  | Del of string  (** line only in the old version *)
  | Add of string  (** line only in the new version *)

val diff_lines : string list -> string list -> line_op list
(** [diff_lines old new_] is a minimal edit script: the subsequence of
    [Keep]/[Del] is [old], the subsequence of [Keep]/[Add] is [new_],
    and the number of [Del] + [Add] is minimal. *)

val split_lines : string -> string list
(** [String.split_on_char '\n']; the inverse of
    [String.concat "\n"], so text round-trips exactly (including
    presence/absence of a trailing newline). *)

val diff : string -> string -> line_op list
(** Split both strings into lines with {!split_lines} and diff them. *)
