(* Tests for the shared binary encoding helpers and the message size
   accounting. *)

let test_wire_integers () =
  let w = Wire.W.create () in
  Wire.W.u8 w 0xab;
  Wire.W.u16 w 0x1234;
  Wire.W.u32 w 0xdeadbeef;
  Wire.W.u64 w 123456789012345;
  let r = Wire.R.of_string (Wire.W.contents w) in
  Alcotest.(check int) "u8" 0xab (Wire.R.u8 r);
  Alcotest.(check int) "u16" 0x1234 (Wire.R.u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Wire.R.u32 r);
  Alcotest.(check int) "u64" 123456789012345 (Wire.R.u64 r);
  Alcotest.(check bool) "consumed" true (Wire.R.at_end r)

let test_wire_strings_and_lists () =
  let w = Wire.W.create () in
  Wire.W.str w "hello";
  Wire.W.str w "";
  Wire.W.list w (Wire.W.str w) [ "a"; "bb"; "ccc" ];
  let r = Wire.R.of_string (Wire.W.contents w) in
  Alcotest.(check string) "str" "hello" (Wire.R.str r);
  Alcotest.(check string) "empty str" "" (Wire.R.str r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "ccc" ] (Wire.R.list r Wire.R.str)

let test_wire_underflow () =
  let r = Wire.R.of_string "\x00" in
  Alcotest.check_raises "u32 underflows" Wire.Underflow (fun () -> ignore (Wire.R.u32 r))

let test_wire_decode_helper () =
  let w = Wire.W.create () in
  Wire.W.str w "payload";
  let encoded = Wire.W.contents w in
  Alcotest.(check (option string)) "decodes" (Some "payload") (Wire.decode encoded Wire.R.str);
  Alcotest.(check (option string)) "trailing bytes rejected" None
    (Wire.decode (encoded ^ "x") Wire.R.str);
  Alcotest.(check (option string)) "truncation rejected" None
    (Wire.decode (String.sub encoded 0 3) Wire.R.str)

let test_wire_binary_safe () =
  let payload = String.init 256 Char.chr in
  let w = Wire.W.create () in
  Wire.W.str w payload;
  Alcotest.(check (option string)) "all byte values roundtrip" (Some payload)
    (Wire.decode (Wire.W.contents w) Wire.R.str)

(* ---- message size accounting ---------------------------------------------- *)

let test_message_sizes_positive () =
  let vo =
    Mtree.Vo.generate
      (Mtree.Merkle_btree.of_alist [ ("k", "v") ])
      (Mtree.Vo.Get "k")
  in
  let messages =
    [
      Tcvs.Message.Query { op = Mtree.Vo.Get "k"; piggyback = [] };
      Tcvs.Message.Root_signature { signer = 0; ctr = 1; signature = String.make 64 's' };
      Tcvs.Message.Response
        {
          answer = Mtree.Vo.Value (Some "v");
          vo;
          ctr = 0;
          last_user = -1;
          root_sig = None;
          epoch = 0;
          epoch_states = [];
        };
      Tcvs.Message.Sync_begin { session = 0; initiator = 0 };
      Tcvs.Message.Sync_count { session = 2; reporter = 0; lctr = 5 };
      Tcvs.Message.Sync_registers
        {
          session = 1;
          reporter = 0;
          registers = { sigma = String.make 32 '0'; last = None; gctr = 3 };
        };
      Tcvs.Message.Sync_verdict { session = 7; reporter = 0; success = true };
    ]
  in
  List.iter
    (fun m ->
      let size = Tcvs.Message.encoded_size m in
      if size <= 0 then
        Alcotest.failf "non-positive size for %s" (Tcvs.Message.kind m))
    messages

let test_response_size_includes_vo () =
  let big_tree =
    Mtree.Merkle_btree.of_alist
      (List.init 1000 (fun i -> (Printf.sprintf "%04d" i, "value")))
  in
  let vo = Mtree.Vo.generate big_tree (Mtree.Vo.Get "0500") in
  let response =
    Tcvs.Message.Response
      {
        answer = Mtree.Vo.Value (Some "value");
        vo;
        ctr = 0;
        last_user = 0;
        root_sig = None;
        epoch = 0;
        epoch_states = [];
      }
  in
  Alcotest.(check bool) "response size dominated by the VO" true
    (Tcvs.Message.encoded_size response >= Mtree.Vo.size_bytes vo)

let test_state_tag_properties () =
  let open Tcvs in
  let root = Crypto.Sha256.digest "root" in
  let a = State_tag.tagged ~root ~ctr:5 ~user:1 in
  let b = State_tag.tagged ~root ~ctr:5 ~user:2 in
  let c = State_tag.untagged ~root ~ctr:5 in
  Alcotest.(check bool) "user tag distinguishes" true (a <> b);
  Alcotest.(check bool) "untagged is a third value" true (c <> a && c <> b);
  Alcotest.(check bool) "initial distinct from tagged" true
    (State_tag.initial ~root <> State_tag.tagged ~root ~ctr:1 ~user:0);
  (* XOR register algebra *)
  Alcotest.(check string) "x ⊕ x = 0" State_tag.zero (State_tag.xor a a);
  Alcotest.(check string) "x ⊕ 0 = x" a (State_tag.xor a State_tag.zero);
  Alcotest.(check string) "associative"
    (State_tag.xor a (State_tag.xor b c))
    (State_tag.xor (State_tag.xor a b) c);
  Alcotest.check_raises "length mismatch" (Invalid_argument "State_tag.xor: length mismatch")
    (fun () -> ignore (State_tag.xor a "short"))

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "wire: integers" test_wire_integers;
    quick "wire: strings and lists" test_wire_strings_and_lists;
    quick "wire: underflow" test_wire_underflow;
    quick "wire: decode helper strictness" test_wire_decode_helper;
    quick "wire: binary safe" test_wire_binary_safe;
    quick "message: sizes positive" test_message_sizes_positive;
    quick "message: response includes VO size" test_response_size_includes_vo;
    quick "state tags: algebra and separation" test_state_tag_properties;
  ]
