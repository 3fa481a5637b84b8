(** The unverified baseline: a user of a {e trusted} CVS.

    Issues operations and believes every answer — no verification
    object replay, no signatures, no registers. This is the cost floor
    every protocol's overhead is measured against in the
    `overhead-ops` experiment, and the victim model in the attack
    demonstrations (it never detects anything). *)

val agent : User_base.t -> User_base.agent
(** The unverified user over [base]: it has no state of its own. *)
