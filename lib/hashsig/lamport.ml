let hash_bits = 256
let value_size = 32

type secret_key = { sk0 : string array; sk1 : string array }
type public_key = { pk0 : string array; pk1 : string array }

let signature_size = hash_bits * value_size

let generate rng =
  let fresh () = Array.init hash_bits (fun _ -> Crypto.Prng.bytes rng value_size) in
  let sk0 = fresh () and sk1 = fresh () in
  let pk0 = Array.map Crypto.Sha256.digest sk0 in
  let pk1 = Array.map Crypto.Sha256.digest sk1 in
  ({ sk0; sk1 }, { pk0; pk1 })

let bit_of_digest digest i = (Char.code digest.[i / 8] lsr (7 - (i mod 8))) land 1

let sign sk msg =
  let digest = Crypto.Sha256.digest msg in
  let buf = Buffer.create signature_size in
  for i = 0 to hash_bits - 1 do
    let preimage = if bit_of_digest digest i = 0 then sk.sk0.(i) else sk.sk1.(i) in
    Buffer.add_string buf preimage
  done;
  Buffer.contents buf

let verify pk msg ~signature =
  String.length signature = signature_size
  && begin
       let digest = Crypto.Sha256.digest msg in
       let ok = ref true in
       for i = 0 to hash_bits - 1 do
         let revealed = String.sub signature (i * value_size) value_size in
         let expected = if bit_of_digest digest i = 0 then pk.pk0.(i) else pk.pk1.(i) in
         if not (Crypto.Ctime.equal (Crypto.Sha256.digest revealed) expected) then
           ok := false
       done;
       !ok
     end
