(** Line-based diff via Myers' O(ND) algorithm ("An O(ND) difference
    algorithm and its variations", 1986) — the same algorithm family
    CVS/RCS use to store revision deltas.

    The CVS substrate stores each file revision as a delta against its
    parent; this module computes and applies those deltas. *)

type line_op =
  | Keep of string  (** line present in both sides *)
  | Del of string  (** line only in the old version *)
  | Add of string  (** line only in the new version *)

val split_lines : string -> string list
(** [String.split_on_char '\n']; the inverse of
    [String.concat "\n"], so text round-trips exactly (including
    presence/absence of a trailing newline). *)

val diff : string -> string -> line_op list
(** [diff old new_] is a minimal edit script over the lines of both
    strings, split with {!split_lines}: the subsequence of [Keep]/[Del]
    is [old]'s lines, the subsequence of [Keep]/[Add] is [new_]'s, and
    the number of [Del] + [Add] is minimal. *)
