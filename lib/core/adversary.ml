type t =
  | Honest
  | Tamper_value of { at_op : int }
  | Drop_update of { at_op : int }
  | Fork of { at_op : int; group_a : int list }
  | Rollback of { at_op : int; depth : int; repeat : int }
  | Stall of { at_op : int }
  | Freeze_epoch of { at_epoch : int }
  | Bitrot of { at_op : int }
  | Crash of { at_round : int }
  | Rollback_crash of { at_round : int }
  | Torn_manifest of { at_round : int; wreck : bool }
  | Checkpoint_crash of { at_round : int }

let name = function
  | Honest -> "honest"
  | Tamper_value { at_op } -> Printf.sprintf "tamper@%d" at_op
  | Drop_update { at_op } -> Printf.sprintf "drop@%d" at_op
  | Fork { at_op; group_a } ->
      Printf.sprintf "fork@%d(A={%s})" at_op
        (String.concat "," (List.map string_of_int group_a))
  | Rollback { at_op; depth; repeat } ->
      Printf.sprintf "rollback@%d-%d%s" at_op depth
        (if repeat > 1 then Printf.sprintf "x%d" repeat else "")
  | Stall { at_op } -> Printf.sprintf "stall@%d" at_op
  | Freeze_epoch { at_epoch } -> Printf.sprintf "freeze-epoch@%d" at_epoch
  | Bitrot { at_op } -> Printf.sprintf "bitrot@%d" at_op
  | Crash { at_round } -> Printf.sprintf "crash@r%d" at_round
  | Rollback_crash { at_round } -> Printf.sprintf "rollback-crash@r%d" at_round
  | Torn_manifest { at_round; wreck } ->
      Printf.sprintf "torn-manifest%s@r%d" (if wreck then "-hard" else "") at_round
  | Checkpoint_crash { at_round } -> Printf.sprintf "checkpoint-crash@r%d" at_round

let violation_op = function
  | Honest -> None
  | Tamper_value { at_op } | Drop_update { at_op } | Rollback { at_op; _ } -> Some at_op
  | Fork { at_op; _ } | Stall { at_op } | Bitrot { at_op } -> Some at_op
  | Freeze_epoch _ -> None (* the violation is time-based, not op-indexed *)
  | Crash _ -> None (* an honest failure: recovery loses nothing *)
  | Rollback_crash _ -> None (* round-indexed, see [violation_round] *)
  | Torn_manifest _ -> None (* round-indexed, see [violation_round] *)
  | Checkpoint_crash _ -> None (* honest: recovery ignores the leftovers *)

let violation_round = function
  | Rollback_crash { at_round } -> Some at_round
  | Torn_manifest { at_round; wreck } -> if wreck then Some at_round else None
  | Honest | Tamper_value _ | Drop_update _ | Fork _ | Rollback _ | Stall _
  | Freeze_epoch _ | Bitrot _ | Crash _ | Checkpoint_crash _ ->
      None
