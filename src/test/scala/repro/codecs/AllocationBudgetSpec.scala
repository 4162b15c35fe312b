package repro.codecs

import java.lang.management.ManagementFactory

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, Buff, Chimp, Fpzip, Gorilla, Pfpc, Spdp}
import repro.codecs.gpu.{NvBitcomp, NvLz4}

/** Bytes the calling thread allocates for one compress + decompress of a
  * 32 768-value double block (256 KiB), and of a 512-value double page
  * (4 KiB, Table 10's smallest block). Boxing every value in an `Array.map`
  * or allocating a buffer per value or per trial shows here as several times
  * the block's size; on a page, so does a per-call buffer or table.
  */
class AllocationBudgetSpec extends SparkSpec {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** BUFF measured 864 KiB after its loops were rewritten without boxing
    * (7 262 KiB before); fpzip measured 1 589 KiB (4 917 KiB before), on
    * OpenJDK 17. The margins are about a third and a quarter: one boxing
    * `Array.map` over the block adds at least 512 KiB. fpzip has since
    * measured 1 145 040 bytes once it wrote its stream straight from its
    * two writers (1 370 536 before, with a copy of each writer's bytes).
    *
    * SPDP measured 1 891 KiB, 512 KiB of it LZa6's ring of 128 Ki links
    * (1 635 KiB with the former 64 Ki ring). Its margin is a fifth, not a
    * third: one link per input byte adds another 512 KiB and must fail.
    *
    * One-thread shf+LZ4, shf+zstd and nv:LZ4 measured 1 577, 1 505 and
    * 1 513 KiB once the transpose read and wrote the block's words and the
    * LZ back ends coded ranges in place (2 246, 2 171 and 2 166 KiB before,
    * with `toBytes`/`fromBytes` and a copy of every part). Their budget of
    * 2 048 KiB leaves about a third: the former copies fail it, as does one
    * boxing `Array.map` over the block. With the shuffled parts and nv:LZ4's
    * raw chunks kept per thread, shf+LZ4 and nv:LZ4 have since measured
    * 861 296 and 815 832 bytes (1 451 064 and 1 405 672 before).
    *
    * With each frame's parts coded in place (one frame array, one copy out)
    * and LZa6 coding into a kept array, one JVM measured, before → after:
    * pFPC 1 032 912 → 788 152 bytes (no budget), SPDP 1 936 240 → 1 806 016,
    * shf+LZ4 860 864 → 697 104, shf+zstd 854 872 → 693 856 and nv:LZ4
    * 815 280 → 671 600. The budgets stay as they were: they are sized to
    * fail a boxing pass over the block, several times the 160 KB the part
    * copies took here.
    */
  private val BuffBudget: Long  = 1152L << 10
  private val FpzipBudget: Long = 2048L << 10
  private val SpdpBudget: Long  = 2304L << 10
  private val LzBudget: Long    = 2048L << 10

  /** Two-decimal values: BUFF tries p = 0, 1 and 2 before it packs them. */
  private val block: FpBlock = TestInputs.decimalD(32768, 2, 0, 53)

  /** The fewest bytes allocated over five runs, after `warmUps` runs that
    * let the JIT compile the loops.
    */
  private def allocatedBytes(codec: Codec, block: FpBlock = block, warmUps: Int = 20): Long = {
    def roundtrip(): Unit = {
      val bytes = codec.compress(block).bytes
      // Arrays.equals: `sameElements` would box every value it compares.
      assert(java.util.Arrays.equals(codec.decompress(bytes, block.precision, block.extent).block.bits, block.bits))
    }
    for (_ <- 1 to warmUps) roundtrip()
    val id = Thread.currentThread().getId
    (1 to 5).map { _ =>
      val before = threads.getThreadAllocatedBytes(id)
      roundtrip()
      threads.getThreadAllocatedBytes(id) - before
    }.min
  }

  /** The threaded codecs run at one thread, so that all their allocations
    * are the calling thread's.
    */
  private val budgets: Seq[(Codec, Long)] = Seq(
    new Buff -> BuffBudget, new Fpzip -> FpzipBudget, new Spdp -> SpdpBudget,
    new BitshuffleLz4(1) -> LzBudget, new BitshuffleZstd(1) -> LzBudget, new NvLz4 -> LzBudget)

  for ((codec, budget) <- budgets)
    test(s"${codec.name} allocates at most ${budget >> 10} KiB for a 256 KiB block round trip") {
      val used = allocatedBytes(codec)
      assert(used <= budget, s"${codec.name} allocated ${used >> 10} KiB")
    }

  /** The same values on one 4 KiB page. */
  private val page: FpBlock = TestInputs.decimalD(512, 2, 0, 53)

  /** One-thread page round trips of the 8 Table 10 codecs measured, in
    * bytes, once writers, output buffers, LZa6's ring and nv:btcomp's chunk
    * were kept per thread and frames built in one copy (before, in
    * brackets): pFPC 13 384 (23 528), SPDP 16 864 (39 472), shf+LZ4 36 264
    * (43 032), shf+zstd 19 816 (26 576), Gorilla 8 520 (14 888), Chimp
    * 8 600 (10 728), nv:LZ4 34 888 (41 552), nv:btcomp 8 112 (18 560), on
    * OpenJDK 17. About 8 KiB of each is the stream and the decoded page.
    * Each budget leaves a margin of 11% to 32% above its figure and lies
    * below the figure before.
    *
    * shf+LZ4 and nv:LZ4 then also held lz4-java's 16 KiB hash table, which
    * it allocates on every call. With LZ4's own 64 KiB coder keeping its
    * table per thread, and the shuffled part, nv:LZ4's raw chunk and SPDP's
    * transformed bytes kept per thread in both directions, shf+LZ4 measured
    * 12 472 bytes, nv:LZ4 10 896, shf+zstd 12 392 and SPDP 8 744 (37 128,
    * 35 432, 20 680 and 17 048 before, in the same run). The budgets of
    * shf+LZ4 and nv:LZ4, 14 and 13 KiB, lie below their figures before less
    * 16 KiB, so lz4-java's per-call table alone fails them.
    *
    * With each frame's parts coded straight into one kept frame array and
    * copied out once, one JVM measured, before → after: pFPC 13 792 →
    * 10 272 bytes, shf+LZ4 12 032 → 9 760, shf+zstd 11 952 → 9 336 and
    * nv:LZ4 10 304 → 8 048 (SPDP 8 696 → 8 704, unchanged). Their budgets
    * went from 16, 14, 24 and 13 KiB to 12, 11, 11 and 10 KiB: 15% to 27%
    * above the figures after, and below each figure before, so the part
    * copy coming back fails them.
    */
  private val pageBudgets: Seq[(Codec, Long)] = Seq(
    new Pfpc(1) -> (12L << 10), new Spdp -> (20L << 10), new BitshuffleLz4(1) -> (11L << 10),
    new BitshuffleZstd(1) -> (11L << 10), new Gorilla -> (11L << 10), new Chimp -> (10L << 10),
    new NvLz4 -> (10L << 10), new NvBitcomp -> (10L << 10))

  /** Many runs: a page round trip is too short for 20 to reach the JIT. */
  private val PageWarmUps = 3000

  for ((codec, budget) <- pageBudgets)
    test(s"${codec.name} allocates at most ${budget >> 10} KiB for a 4 KiB page round trip") {
      val used = allocatedBytes(codec, page, PageWarmUps)
      assert(used <= budget, s"${codec.name} allocated $used bytes")
    }
}
