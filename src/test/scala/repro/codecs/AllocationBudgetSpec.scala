package repro.codecs

import java.lang.management.ManagementFactory

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, Buff, Fpzip, Spdp}
import repro.codecs.gpu.NvLz4

/** Bytes the calling thread allocates for one compress + decompress of a
  * 32 768-value double block (256 KiB). Boxing every value in an `Array.map`
  * or allocating a buffer per value or per trial shows here as several times
  * the block's size.
  */
class AllocationBudgetSpec extends SparkSpec {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** BUFF measured 864 KiB after its loops were rewritten without boxing
    * (7 262 KiB before); fpzip measured 1 589 KiB (4 917 KiB before), on
    * OpenJDK 17. The margins are about a third and a quarter: one boxing
    * `Array.map` over the block adds at least 512 KiB.
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
    * boxing `Array.map` over the block.
    */
  private val BuffBudget: Long  = 1152L << 10
  private val FpzipBudget: Long = 2048L << 10
  private val SpdpBudget: Long  = 2304L << 10
  private val LzBudget: Long    = 2048L << 10

  /** Two-decimal values: BUFF tries p = 0, 1 and 2 before it packs them. */
  private val block: FpBlock = TestInputs.decimalD(32768, 2, 0, 53)

  /** The fewest bytes allocated over five runs, after warm-up runs that
    * let the JIT compile the loops.
    */
  private def allocatedBytes(codec: Codec): Long = {
    def roundtrip(): Unit = {
      val bytes = codec.compress(block).bytes
      // Arrays.equals: `sameElements` would box every value it compares.
      assert(java.util.Arrays.equals(codec.decompress(bytes, block.precision, block.extent).block.bits, block.bits))
    }
    for (_ <- 1 to 20) roundtrip()
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
}
