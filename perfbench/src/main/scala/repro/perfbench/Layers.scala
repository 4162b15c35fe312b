package repro.perfbench

import java.io.File
import repro.core._
import repro.data.FcDatasets
import repro.gpusim.GpuModel
import repro.harness.tables.PaperNumbers
import repro.lz.{Lz4Backend, Lza6, ZstdBackend}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Per-layer metrics of the traced run. A layer the workload exercises is
  * measured from the traced passes; a layer it bypasses is probed after the
  * passes, on the workload's own inputs, so every traced run reports every
  * per-layer metric.
  */
object Layers {
  /** Repetitions of each stage measurement; the median is reported. */
  val Reps = 3

  private def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  def metrics(w: Workload, ctx: Ctx, passes: Seq[PassRecord], genNs: Seq[Long],
              inputChanges: Int, probes: ArrayBuffer[CellResult]): Seq[Metric] = {
    val traced = passes.filter(_.traced)
    val untraced = passes.filterNot(_.traced)
    codecs(w, traced, probes) ++ core(w, ctx) ++ lz(w, probes) ++
      Seq(Metric("data.block_s", Stats.median(genNs.map(_ / 1e9)), "s"),
          Metric("data.fingerprint_mismatches", inputChanges, "count")) ++
      db(w, ctx, probes) ++ scaling(ctx, probes) ++ work(w, probes) ++
      Seq(Metric("jvm.gc_s", med(untraced.map(_.gcNs / 1e9)), "s"),
          Metric("trace.overhead_pct",
                 (med(traced.map(_.wallNs.toDouble)) / med(untraced.map(_.wallNs.toDouble)) - 1) * 100,
                 "%")) ++
      Seq("bench", "codecs").map { layer =>
        Metric(s"self.${layer}_ms",
               med(traced.map(p => ctx.tracer.selfNsByLayer(p.spans).getOrElse(layer, 0L) / 1e6)), "ms")
      }
  }

  /** `codec.<c>.*` per pass: call time, bytes allocated by the calling
    * thread, and the harmonic-mean CR of the codec's cells.
    */
  def codecs(w: Workload, traced: Seq[PassRecord], probes: ArrayBuffer[CellResult]): Seq[Metric] =
    CodecRegistry.all.flatMap { registered =>
      val safe = Names.metricSafe(registered.name)
      val perPass: Seq[Seq[CellResult]] =
        if (w.codecNames.contains(registered.name)) traced.map(_.cells.filter(c => c.codec == safe && c.ok))
        else {
          val codec = Cells.pinned(registered, 1)
          Cells.roundtrip(safe, codec, w.units, new Tracer, countAlloc = false)
          val r = Cells.roundtrip(safe, codec, w.units, new Tracer, countAlloc = true)
          probes += r
          Seq(Seq(r).filter(_.ok))
        }
      val cells = perPass.flatten
      Seq(
        Metric(s"codec.$safe.comp_ms", med(perPass.map(_.map(_.compNs).sum / 1e6)), "ms"),
        Metric(s"codec.$safe.decomp_ms", med(perPass.map(_.map(_.decompNs).sum / 1e6)), "ms"),
        Metric(s"codec.$safe.alloc_mb", med(perPass.map(_.map(_.allocBytes).sum / 1e6)), "MB"),
        Metric(s"codec.$safe.cr", if (cells.isEmpty) 0.0 else Stats.hmean(cells.map(_.cr)), "ratio"))
    }

  /** Median over [[Reps]] runs of `f`, as uncompressed MB per second. */
  private def rate(bytes: Long)(f: => Unit): Double = {
    f // warm
    med((1 to Reps).map(_ => bytes * 1e3 / Main.timed(f)._2))
  }

  def core(w: Workload, ctx: Ctx): Seq[Metric] = {
    val units = w.units
    val bytes = units.map(_.sizeBytes).sum
    val raws = units.map(_.toBytes)
    val k = ctx.maxThreads
    val tasks = (0 until k).toIndexedSeq
    (1 to 200).foreach(_ => Parallel.map(tasks, k)(identity))
    Seq(
      Metric("core.to_bytes_mbps", rate(bytes)(units.foreach(_.toBytes)), "MB/s"),
      Metric("core.from_bytes_mbps", rate(bytes)(units.zip(raws).foreach { case (u, r) =>
        FpBlock.fromBytes(u.precision, u.extent, r) }), "MB/s"),
      Metric("core.parallel_map_us",
             med((1 to 500).map(_ => Main.timed(Parallel.map(tasks, k)(identity))._2 / 1e3)), "us"))
  }

  /** The LZ back ends alone, on the raw bytes of the blocks the workload
    * hands to codecs (the blocks shf+LZ4, shf+zstd and SPDP see before
    * their transforms), with each stream checked to decode to its input.
    */
  def lz(w: Workload, probes: ArrayBuffer[CellResult]): Seq[Metric] = {
    val raws = w.units.map(_.toBytes)
    val bytes = raws.map(_.length.toLong).sum
    def backend(name: String, comp: Array[Byte] => Array[Byte],
                decomp: (Array[Byte], Int) => Array[Byte]): Seq[Metric] = {
      val streams = raws.map(comp)
      val bad = raws.zip(streams).count { case (r, s) => !java.util.Arrays.equals(decomp(s, r.length), r) }
      probes += CellResult.check(s"lz.$name",
                                 if (bad == 0) None else Some(s"$bad streams decoded to other bytes"))
      Seq(Metric(s"lz.$name.comp_mbps", rate(bytes)(raws.foreach(comp)), "MB/s"),
          Metric(s"lz.$name.decomp_mbps",
                 rate(bytes)(raws.zip(streams).foreach { case (r, s) => decomp(s, r.length) }), "MB/s"))
    }
    backend("lz4", Lz4Backend.compress, Lz4Backend.decompress) ++
      backend("zstd", ZstdBackend.compress, ZstdBackend.decompress) ++
      backend("lza6", r => Lza6.compress(r)._1, (s, n) => Lza6.decompress(s, n)._1)
  }

  /** `db.*`: the column store's write time and the read/decode/query split
    * `readDecodeQuery` reports (its decode time is modelled for GPU codecs).
    * No workload runs the column store, so one column is probed: the
    * workload's `tpcH-order` dataset (or its first), cut to
    * [[Db.ColumnValues]] values and stored with Gorilla, once to warm up and
    * [[Reps]] times measured.
    */
  def db(w: Workload, ctx: Ctx, probes: ArrayBuffer[CellResult]): Seq[Metric] = {
    val (name, full) = w.datasets.find(_._1 == "tpcH-order").getOrElse(w.datasets.head)
    val n = math.min(full.n, Db.ColumnValues)
    val block = FpBlock(full.precision, Seq(n.toLong), full.bits.take(n))
    val codec = Cells.pinned(CodecRegistry.byName("Gorilla"), 1)
    val cells = (0 to Reps).map { rep =>
      Db.cell(ctx.spark, new File(ctx.workDir, s"colstore/$name-$rep"), name, block, codec, new Tracer)
    }
    probes ++= cells.map(c => CellResult.check("db", c.error))
    val measured = cells.drop(1).filter(_.error.isEmpty)
    val queries = measured.flatMap(_.query)
    Seq(Metric("db.write_ms", med(measured.map(_.writeNs / 1e6)), "ms"),
        Metric("db.read_ms", med(queries.map(_.readMs)), "ms"),
        Metric("db.decode_ms", med(queries.map(_.decodeMs)), "ms"),
        Metric("db.query_ms", med(queries.map(_.queryMs)), "ms"),
        Metric("db.parquet_bytes", med(measured.map(_.parquetBytes.toDouble)), "bytes"))
  }

  /** Values in the scaling probe's block: the paper's 8 MB `msg-bt` block. */
  val ScaleValues: Int = 1 << 20

  /** `scale.<c>.*`: one-thread compression rate and the speed-ups at the
    * run's thread count, probed on the paper's 8 MB `msg-bt` block (no
    * workload sweeps thread counts). One untimed round, then [[Reps]]
    * measured.
    */
  def scaling(ctx: Ctx, probes: ArrayBuffer[CellResult]): Seq[Metric] = {
    val k = ctx.maxThreads
    val block = FcDatasets.byName("msg-bt").block(ctx.spark, ScaleValues)
    val cells: Seq[Seq[CellResult]] = (0 to Reps).map { rep =>
      val cs = for (n <- PaperNumbers.ScalabilityMethods; t <- Seq(1, k).distinct) yield
        Cells.roundtrip(s"${Names.metricSafe(n)}@${t}t",
                        Cells.pinned(CodecRegistry.byName(n), t), Seq(block), new Tracer, false)
      if (rep > 0) probes ++= cs
      cs.filter(_.ok)
    }.drop(1)
    def rateOf(series: String, r: Seq[CellResult] => Option[Double]): Double =
      med(cells.flatMap(p => r(p.filter(_.series == series))))
    PaperNumbers.ScalabilityMethods.flatMap { n =>
      val safe = Names.metricSafe(n)
      val c1 = rateOf(s"$safe@1t", EndToEnd.compRate)
      val ck = rateOf(s"$safe@${k}t", EndToEnd.compRate)
      val d1 = rateOf(s"$safe@1t", EndToEnd.decompRate)
      val dk = rateOf(s"$safe@${k}t", EndToEnd.decompRate)
      Seq(Metric(s"scale.$safe.comp_mbps_1t", c1, "MB/s"),
          Metric(s"scale.$safe.comp_speedup", if (c1 > 0) ck / c1 else 0.0, "ratio"),
          Metric(s"scale.$safe.decomp_speedup", if (d1 > 0) dk / d1 else 0.0, "ratio"))
    }
  }

  /** `work.<c>.ops_per_byte` from each codec's reported [[WorkProfile]] when
    * compressing the workload's blocks at one thread, and for GPU codecs the
    * roofline model's kernel rate `gpusim.<c>.kernel_gbps` (modelled, not
    * measured). Both are counts and repeat exactly.
    */
  def work(w: Workload, probes: ArrayBuffer[CellResult]): Seq[Metric] = {
    val bytes = w.units.map(_.sizeBytes).sum
    CodecRegistry.all.flatMap { registered =>
      val safe = Names.metricSafe(registered.name)
      val codec = Cells.pinned(registered, 1)
      try {
        val works = w.units.map(u => codec.compress(u).work)
        val ops = Metric(s"work.$safe.ops_per_byte", works.map(_.ops).sum.toDouble / bytes, "ops/B")
        if (codec.platform != "GPU") Seq(ops)
        else Seq(ops, Metric(s"gpusim.$safe.kernel_gbps",
                             bytes / works.map(GpuModel.kernelSeconds).sum / 1e9, "GB/s"))
      } catch {
        case NonFatal(e) =>
          probes += CellResult.check(safe, Some(CellResult.describe(e)))
          Seq(Metric(s"work.$safe.ops_per_byte", 0.0, "ops/B")) ++
            (if (codec.platform == "GPU") Seq(Metric(s"gpusim.$safe.kernel_gbps", 0.0, "GB/s")) else Nil)
      }
    }
  }
}
