let u64_bytes v =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((v lsr (8 * (7 - i))) land 0xff))
  done;
  Bytes.unsafe_to_string b

let hash_parts tag parts =
  (* Length framing via the digest_list on framed parts: each part is
     itself fixed-layout (tag, 32-byte root, 8-byte ints), so plain
     concatenation is already injective per tag. *)
  Crypto.Sha256.digest_list (tag :: parts)

let initial ~root = hash_parts "tcvs-state-init" [ root; u64_bytes 1 ]
let tagged ~root ~ctr ~user = hash_parts "tcvs-state" [ root; u64_bytes ctr; u64_bytes user ]
let untagged ~root ~ctr = hash_parts "tcvs-state-untagged" [ root; u64_bytes ctr ]
let root_sig_message ~root ~ctr = hash_parts "tcvs-rootsig" [ root; u64_bytes ctr ]

let backup_message ~epoch ~sigma ~last ~gctr =
  hash_parts "tcvs-backup" [ u64_bytes epoch; sigma; last; u64_bytes gctr ]

let token_record_message ~prev_digest ~root ~ctr ~user ~op_digest =
  hash_parts "tcvs-token"
    [ prev_digest; root; u64_bytes ctr; u64_bytes user; op_digest ]

let xor a b =
  if String.length a <> String.length b then invalid_arg "State_tag.xor: length mismatch";
  String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let zero = String.make 32 '\x00'

type registers = { sigma : string; last : string option; gctr : int }

let no_registers = { sigma = zero; last = None; gctr = 0 }

let fold ~tag regs ~old_root ~new_root ~ctr ~last_user ~user =
  let old_tag =
    if ctr = 0 then initial ~root:old_root else tag ~root:old_root ~ctr ~user:last_user
  in
  let new_tag = tag ~root:new_root ~ctr:(ctr + 1) ~user in
  { sigma = xor regs.sigma (xor old_tag new_tag); last = Some new_tag; gctr = ctr + 1 }
