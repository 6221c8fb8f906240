(** Shared physical memory and the MMIO bus.

    Both cores address the same DRAM at the same addresses — the "shared
    platform resources" half of the paper's hardware model (§2.2): the
    peripheral core maps all kernel code/data at identical addresses as
    the CPU. Accesses outside DRAM are routed to registered MMIO regions
    (devices, interrupt controllers, timers); an unclaimed access raises
    {!Bus_fault}, which is how the M3's MPU fault on the CPU's interrupt
    controller registers is modelled. *)

exception Bus_fault of { addr : int; write : bool }

type region = {
  rbase : int;
  rsize : int;
  rname : string;
  rread : int -> int -> int;  (** [rread offset nbytes] *)
  rwrite : int -> int -> int -> unit;  (** [rwrite offset nbytes value] *)
}

(* DRAM is held as 4 KiB pages, each allocated on its first write.
   Until then a page reads from [zero_page], one all-zero page shared by
   every platform and never written, so a platform holds only the pages
   it has stored to: 55 of its 6,144 after boot, 65-98 after three
   suspend/resume cycles. An access inside one page is an array load
   plus the Bytes access; a 2- or 4-byte access that straddles two pages
   takes a byte-wise slow path.

   Pages are also the world-snapshot layer's unit: every store marks its
   page in [page_touched], so a snapshot only has to compare the touched
   pages against the baseline instead of all of DRAM. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(** The content of every page that has never been written. Shared and
    never written: nothing may mutate it. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  ram_base : int;
  ram_size : int;  (** bytes, a whole number of pages *)
  pages : Bytes.t array;
      (** page [i] covers offsets [i * page_size ..]; it is [zero_page]
          (physically) until its first write *)
  page_touched : Bytes.t;  (** '\001' where the page may differ from
                               the snapshot baseline *)
  mutable regions : region list;
  mutable dma_read_bytes : int;  (** device-initiated DRAM traffic *)
  mutable dma_write_bytes : int;
}

(** [create ~ram_base ~ram_size] makes a platform memory with zeroed
    DRAM; no page is allocated until it is written.
    @raise Invalid_argument unless [ram_size] is a positive multiple of
    [page_size]. *)
let create ~ram_base ~ram_size =
  if ram_size <= 0 || ram_size land page_mask <> 0 then
    invalid_arg "Mem.create: ram_size must be a positive multiple of 4 KiB";
  let n = ram_size lsr page_bits in
  { ram_base; ram_size; pages = Array.make n zero_page;
    page_touched = Bytes.make n '\000';
    regions = []; dma_read_bytes = 0; dma_write_bytes = 0 }

let npages t = Array.length t.pages
let page_touched t i = Bytes.unsafe_get t.page_touched i <> '\000'

let set_page_touched t i v =
  Bytes.unsafe_set t.page_touched i (if v then '\001' else '\000')

(** [page_allocated t i] — has page [i] been given its own storage (by
    a write or a {!page_load})? *)
let page_allocated t i = t.pages.(i) != zero_page

(** [page_snapshot t i] — page [i]'s current bytes as a value that later
    writes cannot change: [zero_page] itself while the page is
    unallocated, else a fresh copy. Callers must not mutate it. *)
let page_snapshot t i =
  let p = t.pages.(i) in
  if p == zero_page then p else Bytes.copy p

let page_equal t i buf =
  let p = t.pages.(i) in
  p == buf || Bytes.equal p buf

(** [page_load t i buf] — overwrite page [i] with [buf] (no dirty
    marking: the snapshot layer maintains the bitmap itself). An
    unallocated page stays unallocated when [buf] is [zero_page]. *)
let page_load t i buf =
  let p = t.pages.(i) in
  if p != zero_page then Bytes.blit buf 0 p 0 page_size
  else if buf != zero_page then t.pages.(i) <- Bytes.copy buf

(** [add_region t r] registers an MMIO region (latest wins on overlap). *)
let add_region t r = t.regions <- r :: t.regions

let in_ram t addr = addr >= t.ram_base && addr < t.ram_base + t.ram_size

let find_region t addr =
  List.find_opt (fun r -> addr >= r.rbase && addr < r.rbase + r.rsize) t.regions

(* Raw RAM accessors, little-endian. Each takes the in-page fast path
   when the access fits in one page. The page lookup is bounds-checked,
   so an address outside RAM raises Invalid_argument. *)

(* the page holding offset [off], for a store: allocated on first use
   and marked touched *)
let store_page t off =
  let p = off lsr page_bits in
  let pg = t.pages.(p) in
  let pg =
    if pg != zero_page then pg
    else begin
      let pg = Bytes.make page_size '\000' in
      Array.unsafe_set t.pages p pg;
      pg
    end
  in
  Bytes.unsafe_set t.page_touched p '\001';
  pg

(* The byte-wise path of a 2- or 4-byte access that straddles a page
   boundary. The whole range is checked first, so a straddle off the top
   of RAM raises before a write stores (or marks) any byte. *)
let check_span t off nbytes =
  if off < 0 || off + nbytes > t.ram_size then invalid_arg "index out of bounds"

let read_bytes t off nbytes =
  check_span t off nbytes;
  let v = ref 0 in
  for a = off + nbytes - 1 downto off do
    v :=
      (!v lsl 8)
      lor Char.code (Bytes.get t.pages.(a lsr page_bits) (a land page_mask))
  done;
  !v

let write_bytes t off nbytes v =
  check_span t off nbytes;
  for k = 0 to nbytes - 1 do
    let a = off + k in
    Bytes.set (store_page t a) (a land page_mask)
      (Char.unsafe_chr ((v lsr (8 * k)) land 0xFF))
  done

(* Fast-path word accessors for the interpreter hot loops: same
   semantics as [ram_read]/[ram_write] with [nbytes = 4], minus the size
   dispatch. The caller has already established [in_ram addr]. *)
let ram_read32 t addr =
  let off = addr - t.ram_base in
  let o = off land page_mask in
  if o <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le t.pages.(off lsr page_bits) o)
    land 0xFFFFFFFF
  else read_bytes t off 4

let ram_write32 t addr v =
  let off = addr - t.ram_base in
  let o = off land page_mask in
  if o <= page_size - 4 then
    Bytes.set_int32_le (store_page t off) o (Int32.of_int (Tk_isa.Bits.s32 v))
  else write_bytes t off 4 v

let ram_read t addr nbytes =
  let off = addr - t.ram_base in
  let o = off land page_mask in
  match nbytes with
  | 1 -> Char.code (Bytes.get t.pages.(off lsr page_bits) o)
  | 2 ->
    if o < page_mask then Bytes.get_uint16_le t.pages.(off lsr page_bits) o
    else read_bytes t off 2
  | 4 -> ram_read32 t addr
  | n -> invalid_arg (Printf.sprintf "ram_read size %d" n)

let ram_write t addr nbytes v =
  let off = addr - t.ram_base in
  let o = off land page_mask in
  match nbytes with
  | 1 -> Bytes.set (store_page t off) o (Char.unsafe_chr (v land 0xFF))
  | 2 ->
    if o < page_mask then Bytes.set_uint16_le (store_page t off) o (v land 0xFFFF)
    else write_bytes t off 2 v
  | 4 -> ram_write32 t addr v
  | n -> invalid_arg (Printf.sprintf "ram_write size %d" n)

(** [read t addr nbytes] — core- or DBT-initiated read; RAM or MMIO.
    @raise Bus_fault on unclaimed addresses. *)
let read t addr nbytes =
  if in_ram t addr then ram_read t addr nbytes
  else
    match find_region t addr with
    | Some r -> r.rread (addr - r.rbase) nbytes land 0xFFFFFFFF
    | None -> raise (Bus_fault { addr; write = false })

(** [write t addr nbytes v] — core- or DBT-initiated write. *)
let write t addr nbytes v =
  if in_ram t addr then ram_write t addr nbytes v
  else
    match find_region t addr with
    | Some r -> r.rwrite (addr - r.rbase) nbytes v
    | None -> raise (Bus_fault { addr; write = true })

(** [dma_read t addr n] models a device reading [n] bytes from DRAM
    (counted as DRAM traffic, bypassing core caches). Returns the bytes
    as ints. *)
let dma_read t addr n =
  t.dma_read_bytes <- t.dma_read_bytes + n;
  List.init n (fun i -> ram_read t (addr + i) 1)

(** [dma_write t addr bytes] models a device writing to DRAM. *)
let dma_write t addr bytes =
  t.dma_write_bytes <- t.dma_write_bytes + List.length bytes;
  List.iteri (fun i b -> ram_write t (addr + i) 1 b) bytes

(** [load_image t (img : Tk_isa.Asm.image)] copies a linked guest image
    into DRAM at its base address. *)
let load_image t (img : Tk_isa.Asm.image) =
  Array.iteri (fun i w -> ram_write t (img.base + (4 * i)) 4 w) img.words

(** [digest t ~lo ~hi] is a cheap checksum of a DRAM range, used by the
    differential tests to compare end states of native vs translated
    execution. *)
let digest t ~lo ~hi =
  let h = ref 5381 in
  for a = lo to hi - 1 do
    if in_ram t a then h := ((!h lsl 5) + !h + ram_read t a 1) land 0x3FFFFFFFFFFF
  done;
  !h
