let hex_digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

let value_of_char c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Hex.decode: invalid character %C" c)

let decode h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = value_of_char h.[2 * i] and lo = value_of_char h.[(2 * i) + 1] in
    Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string out
