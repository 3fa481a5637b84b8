type epoch_backup = {
  backup_user : int;
  backup_epoch : int;
  sigma : string;
  last : string;
  backup_gctr : int;
  backup_signature : string;
}

type token_record = {
  token_user : int;
  token_ctr : int;
  root : string;
  op_digest : string;
  prev_digest : string;
  token_signature : string;
}

type piggyback =
  | Backup of epoch_backup
  | Request_states of { epochs : int list }

type t =
  | Query of { op : Mtree.Vo.op; piggyback : piggyback list }
  | Root_signature of { signer : int; ctr : int; signature : string }
  | Token_take_turn of { op : Mtree.Vo.op option; record : token_record }
  | Response of {
      answer : Mtree.Vo.answer;
      vo : Mtree.Vo.t;
      ctr : int;
      last_user : int;
      root_sig : string option;
      epoch : int;
      epoch_states : (int * epoch_backup list) list;
    }
  | Token_state of { record : token_record option; vo : Mtree.Vo.t }
  | Sync_begin of { session : int; initiator : int }
  | Sync_count of { session : int; reporter : int; lctr : int }
  | Sync_registers of { session : int; reporter : int; registers : State_tag.registers }
  | Sync_verdict of { session : int; reporter : int; success : bool }
  | Shard_witness of { reporter : int; entries : (int * int * string) list }

let kind = function
  | Query _ -> "query"
  | Root_signature _ -> "root_signature"
  | Token_take_turn _ -> "token_take_turn"
  | Response _ -> "response"
  | Token_state _ -> "token_state"
  | Sync_begin _ -> "sync_begin"
  | Sync_count _ -> "sync_count"
  | Sync_registers _ -> "sync_registers"
  | Sync_verdict _ -> "sync_verdict"
  | Shard_witness _ -> "shard_witness"

(* Sizes approximate a compact binary wire format: 8 bytes per integer,
   32 bytes per digest/register, actual length for strings, plus the
   real encoded size of verification objects. *)

let op_size (op : Mtree.Vo.op) =
  match op with
  | Mtree.Vo.Get k | Mtree.Vo.Remove k -> 1 + String.length k
  | Mtree.Vo.Set (k, v) -> 1 + String.length k + String.length v
  | Mtree.Vo.Set_many entries ->
      List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v + 8) 1 entries
  | Mtree.Vo.Range (lo, hi) -> 1 + String.length lo + String.length hi

let answer_size (a : Mtree.Vo.answer) =
  match a with
  | Mtree.Vo.Value None -> 2
  | Mtree.Vo.Value (Some v) -> 2 + String.length v
  | Mtree.Vo.Updated -> 1
  | Mtree.Vo.Entries es ->
      List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v + 8) 1 es

let backup_size b = 8 + 8 + 32 + 32 + 8 + String.length b.backup_signature

let token_record_size r = 8 + 8 + 32 + 32 + 32 + String.length r.token_signature

let encoded_size = function
  | Query { op; piggyback } ->
      1 + op_size op
      + List.fold_left
          (fun acc pb ->
            acc
            + (match pb with
              | Backup b -> 1 + backup_size b
              | Request_states { epochs } -> 1 + (8 * List.length epochs)))
          1 piggyback
  | Root_signature { signature; _ } -> 1 + 8 + 8 + String.length signature
  | Token_take_turn { op; record } ->
      1 + (match op with None -> 1 | Some o -> 1 + op_size o) + token_record_size record
  | Response { answer; vo; root_sig; epoch_states; _ } ->
      1 + answer_size answer + Mtree.Vo.size_bytes vo + 8 + 8 + 8
      + (match root_sig with None -> 1 | Some s -> 1 + String.length s)
      + List.fold_left
          (fun acc (_, backups) ->
            acc + 8 + List.fold_left (fun a b -> a + backup_size b) 0 backups)
          0 epoch_states
  | Token_state { record; vo } ->
      1 + (match record with None -> 1 | Some r -> token_record_size r) + Mtree.Vo.size_bytes vo
  | Sync_begin _ -> 17
  | Sync_count _ -> 25
  | Sync_registers { registers = { last; _ }; _ } ->
      1 + 8 + 8 + 32 + (match last with None -> 1 | Some _ -> 33) + 8
  | Sync_verdict _ -> 18
  | Shard_witness { entries; _ } -> 1 + 8 + ((8 + 8 + 32) * List.length entries)
