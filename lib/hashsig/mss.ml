exception Keys_exhausted

let value_size = 32

type signer = {
  params : Winternitz.params;
  height : int;
  secrets : Winternitz.secret_key array;
  publics : Winternitz.public_key array;
  (* levels.(0) = leaf digests, levels.(height) = [| root |]. *)
  levels : string array array;
  mutable next_leaf : int;
}

type public_key = string

let node_hash left right = Crypto.Sha256.digest_list [ "mss-node"; left; right ]
let leaf_hash wots_pk_digest = Crypto.Sha256.digest_list [ "mss-leaf"; wots_pk_digest ]

let create ~height ~w rng =
  if height < 1 || height > 20 then invalid_arg "Mss.create: height must be in [1, 20]";
  let params = Winternitz.params ~w in
  let n = 1 lsl height in
  let keypairs = Array.init n (fun _ -> Winternitz.generate params rng) in
  let secrets = Array.map fst keypairs and publics = Array.map snd keypairs in
  let levels = Array.make (height + 1) [||] in
  levels.(0) <- Array.map (fun pk -> leaf_hash (Winternitz.public_key_digest pk)) publics;
  for level = 1 to height do
    let below = levels.(level - 1) in
    levels.(level) <-
      Array.init
        (Array.length below / 2)
        (fun i -> node_hash below.(2 * i) below.((2 * i) + 1))
  done;
  { params; height; secrets; publics; levels; next_leaf = 0 }

let public_key t = t.levels.(t.height).(0)
let capacity t = 1 lsl t.height
let auth_path t leaf =
  List.init t.height (fun level ->
      let index_at_level = leaf lsr level in
      t.levels.(level).(index_at_level lxor 1))

(* Wire format:
   2 bytes height | 2 bytes w | 4 bytes leaf index |
   WOTS public key | WOTS signature | height * 32 bytes auth path.
   All integers big-endian. *)

let put_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  put_u16 buf ((v lsr 16) land 0xffff);
  put_u16 buf (v land 0xffff)

let get_u16 s pos = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]
let get_u32 s pos = (get_u16 s pos lsl 16) lor get_u16 s (pos + 2)

let w_of_params p = Winternitz.chain_count p

let signature_size ~height ~w =
  let p = Winternitz.params ~w in
  8 + (Winternitz.chain_count p * value_size) + Winternitz.signature_size p
  + (height * value_size)

let sign t msg =
  if t.next_leaf >= capacity t then raise Keys_exhausted;
  let leaf = t.next_leaf in
  t.next_leaf <- leaf + 1;
  let wots_sig = Winternitz.sign t.secrets.(leaf) msg in
  let buf = Buffer.create 256 in
  put_u16 buf t.height;
  put_u16 buf (w_of_params t.params);
  put_u32 buf leaf;
  Buffer.add_string buf (Winternitz.public_to_string t.publics.(leaf));
  Buffer.add_string buf wots_sig;
  List.iter (Buffer.add_string buf) (auth_path t leaf);
  Buffer.contents buf

let verify root msg ~signature =
  let len = String.length signature in
  if len < 8 then false
  else begin
    let height = get_u16 signature 0 in
    let encoded_chains = get_u16 signature 2 in
    let leaf = get_u32 signature 4 in
    (* Recover the Winternitz parameter set by matching chain counts
       over the legal powers of two. *)
    let params =
      List.find_opt
        (fun w -> Winternitz.chain_count (Winternitz.params ~w) = encoded_chains)
        [ 4; 8; 16; 32; 64; 128; 256 ]
      |> Option.map (fun w -> Winternitz.params ~w)
    in
    match params with
    | None -> false
    | Some p ->
        let pk_len = Winternitz.chain_count p * value_size in
        let sig_len = Winternitz.signature_size p in
        let expected = 8 + pk_len + sig_len + (height * value_size) in
        if len <> expected || height < 1 || height > 20 || leaf >= 1 lsl height then
          false
        else begin
          let wots_pk_str = String.sub signature 8 pk_len in
          let wots_sig = String.sub signature (8 + pk_len) sig_len in
          match Winternitz.public_of_string p wots_pk_str with
          | None -> false
          | Some wots_pk ->
              Winternitz.verify wots_pk msg ~signature:wots_sig
              && begin
                   let node =
                     ref (leaf_hash (Winternitz.public_key_digest wots_pk))
                   in
                   for level = 0 to height - 1 do
                     let sibling =
                       String.sub signature
                         (8 + pk_len + sig_len + (level * value_size))
                         value_size
                     in
                     node :=
                       if (leaf lsr level) land 1 = 0 then node_hash !node sibling
                       else node_hash sibling !node
                   done;
                   Crypto.Ctime.equal !node root
                 end
        end
  end
