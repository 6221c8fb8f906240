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

(* DRAM is held as 4 KiB pages, each copied on its first write.
   Until then a page reads from [zero_page], one all-zero page shared by
   every platform and never written, so a platform holds only the pages
   it has stored to: 55 of its 6,144 after boot, 65-98 after three
   suspend/resume cycles. An access inside one page is an array load
   plus the Bytes access; a 2- or 4-byte access that straddles two pages
   takes a byte-wise slow path.

   Pages are also the world-snapshot layer's unit, and they are
   copy-on-write: a store writes a page in place only while [owned]
   marks it as this memory's private copy, and copies it first
   otherwise. [zero_page] is simply the first shared page. {!share}
   hands every page out by reference and clears [owned], so a snapshot
   of DRAM is the page array itself; {!reload} swaps such an array back
   in. An owned page is never [zero_page] and no snapshot holds it. *)
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
  owned : Bytes.t;
      (** '\001' where [pages.(i)] is this memory's private copy, which
          a store may write in place; any other page is shared *)
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
    owned = Bytes.make n '\000';
    regions = []; dma_read_bytes = 0; dma_write_bytes = 0 }

let npages t = Array.length t.pages

(** [page_allocated t i] — has page [i] been given storage of its own,
    by a write here or by a {!reload}? *)
let page_allocated t i = t.pages.(i) != zero_page

(** [share t] — DRAM as it stands, by reference: a copy of the page
    array, whose pages no store will write again. Every page becomes
    shared, so the next store to each copies it first. O(pages), and no
    byte is copied. *)
let share t =
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000';
  Array.copy t.pages

(** [reload t ~exempt pages ~on_page] — make DRAM read as [pages], an
    array from {!share}, by putting its pages back by reference: no
    byte is copied. A page marked in [exempt] keeps its live content.
    [on_page i ~old] runs after the swap for each page whose bytes
    changed, with the page it replaced. *)
let reload t ~exempt pages ~on_page =
  for i = 0 to Array.length pages - 1 do
    let old = t.pages.(i) and pg = pages.(i) in
    if old != pg && Bytes.get exempt i = '\000' then begin
      t.pages.(i) <- pg;
      Bytes.set t.owned i '\000';
      if not (Bytes.equal old pg) then on_page i ~old
    end
  done

(** [add_region t r] registers an MMIO region (latest wins on overlap). *)
let add_region t r = t.regions <- r :: t.regions

let in_ram t addr = addr >= t.ram_base && addr < t.ram_base + t.ram_size

let claims r addr = addr >= r.rbase && addr < r.rbase + r.rsize

(* Raw RAM accessors, little-endian. Each takes the in-page fast path
   when the access fits in one page. The page lookup is bounds-checked,
   so an address outside RAM raises Invalid_argument. *)

(* the page holding offset [off], for a store: a page this memory does
   not own is copied first. The bounds-checked [owned] read raises on an
   offset outside RAM before anything changes; [owned] and [pages] have
   the same length, so the page accesses need no second check. *)
let store_page t off =
  let p = off lsr page_bits in
  if Bytes.get t.owned p <> '\000' then Array.unsafe_get t.pages p
  else begin
    let pg = Bytes.copy (Array.unsafe_get t.pages p) in
    Array.unsafe_set t.pages p pg;
    Bytes.unsafe_set t.owned p '\001';
    pg
  end

(* The byte-wise path of a 2- or 4-byte access that straddles a page
   boundary. The whole range is checked first, so a straddle off the top
   of RAM raises before a write stores (or copies) any byte. *)
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

(** [mmio_read addr nbytes regions] / [mmio_write addr nbytes v regions]
    — a device access outside RAM, dispatched to the first region of
    [regions] that claims [addr], which is the one registered last. A
    plain walk of the list, so a device access allocates nothing.
    @raise Bus_fault on unclaimed addresses. *)
let rec mmio_read addr nbytes = function
  | r :: _ when claims r addr -> r.rread (addr - r.rbase) nbytes land 0xFFFFFFFF
  | _ :: rest -> mmio_read addr nbytes rest
  | [] -> raise (Bus_fault { addr; write = false })

let rec mmio_write addr nbytes v = function
  | r :: _ when claims r addr -> r.rwrite (addr - r.rbase) nbytes v
  | _ :: rest -> mmio_write addr nbytes v rest
  | [] -> raise (Bus_fault { addr; write = true })

(** [read t addr nbytes] — core- or DBT-initiated read; RAM or MMIO.
    @raise Bus_fault on unclaimed addresses. *)
let read t addr nbytes =
  if in_ram t addr then ram_read t addr nbytes
  else mmio_read addr nbytes t.regions

(** [write t addr nbytes v] — core- or DBT-initiated write. *)
let write t addr nbytes v =
  if in_ram t addr then ram_write t addr nbytes v
  else mmio_write addr nbytes v t.regions

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
