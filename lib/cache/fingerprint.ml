let format_version = 3

let compute ?(version = format_version) ~text ~technique ~n_threads ~coco
    ~machine () =
  let field k v = Printf.sprintf "%s=%d:%s\n" k (String.length v) v in
  let head =
    String.concat ""
      [
        field "gmt-cache" (string_of_int version);
        field "technique" technique;
        field "n_threads" (string_of_int n_threads);
        field "coco" (string_of_bool coco);
        field "machine" machine;
        Printf.sprintf "text=%d:" (String.length text);
      ]
  in
  (* The text is the bulk of the digest input (hundreds of KB): it is
     copied once, into an exact-size buffer, not through a growable
     [Buffer] and then [Buffer.contents]. *)
  let h = String.length head and n = String.length text in
  let buf = Bytes.create (h + n + 1) in
  Bytes.blit_string head 0 buf 0 h;
  Bytes.blit_string text 0 buf h n;
  Bytes.set buf (h + n) '\n';
  Digest.to_hex (Digest.bytes buf)
