(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Used as the integrity check on every Record frame (journal segments,
   cache and checkpoint entries): unlike a truncation check alone it
   catches bit rot and partially overwritten blocks, and unlike
   Digest/MD5 it is 4 bytes and cheap enough to run on every frame. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let t = Lazy.force table in
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let string s = update 0l s 0 (String.length s)
