(** Process-wide toggle for the runtime invariant sanitizers.

    The lint pass ([tools/lint]) enforces statically that digests are
    compared exactly and deterministic paths stay deterministic; the
    sanitizers are its dynamic counterpart, validating what only exists
    at runtime: Merkle digest caches ({!Mtree.Merkle_btree.check_invariants}),
    server state and branch history ({!Server.check_invariants}),
    Protocol II's XOR register ledger ({!Protocol2.check_registers}) and
    Protocol III's epoch bookkeeping ({!Protocol3.check_epochs}).

    Off by default (full-tree digest recomputation per check); armed by
    the test suite, [tcvs simulate --sanitize] or [TCVS_SANITIZE=1].
    Violations surface as simulator alarms where an engine is at hand,
    or as {!Violation} where there is none. *)

exception Violation of string

val enabled : unit -> bool
(** Current state; initially true iff [TCVS_SANITIZE] is set to
    anything but [""], ["0"], ["false"] or ["off"]. *)

val set_enabled : bool -> unit

val count_check : unit -> unit
(** Bump the [sanitize.checks_run] counter — call once per check
    actually performed so reports show sanitizer coverage. *)

val violation : ('a, unit, string, 'b) format4 -> 'a
(** Record the violation in the registry and raise {!Violation}. *)
