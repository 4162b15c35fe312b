package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.Random

/** One pass as measured: its wall time, its cells, the GC time inside it,
  * and, in a traced pass, its spans.
  */
final case class PassRecord(traced: Boolean, wallNs: Long, cells: Seq[CellResult],
                            gcNs: Long, spans: Seq[Span])

/** A reported metric: name, value and unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Benchmark entry point:
  * `Main --workload <grid|pages> --seed <n> --seconds <s>
  *      --trace <0|1> --work-dir <dir>`.
  *
  * The run sets up (Spark start, corpus generation, warm-up), then runs
  * passes of the workload for about `--seconds`, one closed loop on one
  * thread, and prints one JSON line last: the end-to-end metrics with
  * `--trace 0`, the per-layer metrics with `--trace 1`.
  */
object Main {
  /** Corpus generations per run; set-up time reports their median. */
  val SetupRepeats = 3

  /** Fixed partition count for every Spark leaf scan, so the generated
    * corpus (per-partition `rand`/`randn` seeds) does not depend on the
    * host's core count.
    */
  val Partitions = 4

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: File)

  def parseArgs(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = get("seconds").toInt
    require(seconds >= 1, s"--seconds must be positive: $seconds")
    Args(get("workload"), get("seed").toLong, seconds, trace, new File(get("work-dir")))
  }

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  def session(threads: Int, workDir: File): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.default.parallelism", Partitions.toString)
      .config("spark.sql.leafNodeDefaultParallelism", Partitions.toString)
      .config("spark.sql.shuffle.partitions", Partitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def gcNs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum * 1000000L

  /** Heap in use after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def main(argv: Array[String]): Unit = {
    val jvmToMainMs = ManagementFactory.getRuntimeMXBean.getUptime
    val args = parseArgs(argv)
    val workload = Workload.byName(args.workload)
    val threads = math.min(Partitions, Runtime.getRuntime.availableProcessors())
    val tracer = new Tracer

    val (spark, sparkNs) = timed(session(threads, args.workDir))
    val line = try {
      val genNs = (1 to SetupRepeats).map(_ => timed(workload.generate(spark))._2)
      val ctx = Ctx(spark, tracer, countAlloc = false, args.workDir, threads)
      val (_, warmNs) = timed(workload.warmUp())
      val setupS = (sparkNs + Stats.median(genNs.map(_.toDouble)) + warmNs) / 1e9
      val heapSetup = liveHeapMb()

      val inputChanges = Fingerprints.check(workload.datasets)
      println(s"fingerprints: ${Fingerprints.render(workload.datasets)}")
      inputChanges.foreach(c => println(s"input change: $c"))
      println(f"setup: jvm_to_main=${jvmToMainMs / 1e3}%.2fs spark=${sparkNs / 1e9}%.2fs " +
              s"generate=${genNs.map(n => f"${n / 1e9}%.2f").mkString("[", ",", "]")}s " +
              f"warmup=${warmNs / 1e9}%.2fs")
      println(s"threads: spark=local[$threads] partitions=$Partitions " +
              s"codecs=${Workload.CodecThreads}")

      val passes = runPasses(workload, ctx, args)
      val heapEnd = liveHeapMb()
      val untraced = passes.filterNot(_.traced)

      val probes = scala.collection.mutable.ArrayBuffer.empty[CellResult]
      val metrics =
        if (!args.trace) EndToEnd.metrics(untraced, setupS, math.max(heapSetup, heapEnd))
        else {
          val m = Layers.metrics(workload, ctx, passes, genNs, inputChanges.size, probes)
          tracer.write(new File(args.workDir, s"traces/${workload.name}-seed${args.seed}.jsonl"))
          m
        }
      val cells = passes.flatMap(_.cells) ++ probes
      val failed = cells.filterNot(_.ok)
      val failRatio = Metric("fail_ratio", failed.size.toDouble / cells.size, "ratio")
      failed.groupBy(c => (c.codec, c.error)).foreach { case ((c, e), xs) =>
        println(s"failed: $c x${xs.size}: ${e.getOrElse("")}")
      }
      println(EndToEnd.describeSamples(untraced))
      Json.obj(Seq(
        "correct" -> (failed.isEmpty).toString,
        "attempted" -> cells.size.toString,
        "failed" -> failed.size.toString,
        "metrics" -> Json.obj((if (args.trace) metrics :+ failRatio else metrics).map(m =>
          m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))))))
    } finally spark.stop()
    println(line)
    System.out.flush()
    sys.exit(0)
  }

  /** Passes until about `--seconds` have gone by: a pass starts only if half
    * the previous pass still fits. A traced run alternates untraced and
    * traced passes and makes at least one of each.
    */
  def runPasses(w: Workload, ctx: Ctx, args: Args): Seq[PassRecord] = {
    val rng = new Random(args.seed)
    val deadline = System.nanoTime() + args.seconds * 1000000000L
    val out = scala.collection.mutable.ArrayBuffer.empty[PassRecord]
    var more = true
    while (more) {
      val traced = args.trace && out.size % 2 == 1
      ctx.tracer.enabled = traced
      val mark = ctx.tracer.size
      val gc0 = gcNs()
      val (cells, wall) = timed(ctx.tracer.span("pass", "bench")(
        w.pass(ctx.copy(countAlloc = traced), rng)))
      ctx.tracer.enabled = false
      out += PassRecord(traced, wall, cells, gcNs() - gc0, ctx.tracer.since(mark))
      more = (args.trace && out.size < 2) || System.nanoTime() + wall / 2 < deadline
    }
    out.toSeq
  }
}

/** End-to-end metrics, from the untraced passes. */
object EndToEnd {
  /** Uncompressed MB (1e6 bytes) per second of call time. */
  def mbps(bytes: Long, ns: Long): Double = bytes * 1e3 / ns

  /** Each cell's samples, one per pass. Passes list their cells in the same
    * order; a cell that failed in any pass is left out.
    */
  def cellSamples(passes: Seq[PassRecord]): Seq[Seq[CellResult]] =
    passes.head.cells.indices.map(i => passes.map(_.cells(i))).filter(_.forall(_.ok))

  /** A cell's best time over the passes. Other load on a shared host only
    * ever adds time, so the fastest of many repetitions, spread over the
    * whole run, is the steadiest estimate of what the calls cost.
    */
  def best(samples: Seq[CellResult], ns: CellResult => Long): Long = samples.map(ns).min

  /** Geometric mean over series of each series' rate: its cells' bytes over
    * the sum of the cells' best times.
    */
  def geomeanRate(passes: Seq[PassRecord], ns: CellResult => Long): Double = {
    val rates = cellSamples(passes).groupBy(_.head.series).toSeq.sortBy(_._1).map { case (_, cs) =>
      mbps(cs.map(_.head.rawBytes).sum, cs.map(best(_, ns)).sum)
    }
    if (rates.isEmpty) 0.0 else Stats.geomean(rates)
  }

  def compRate(cs: Seq[CellResult]): Option[Double] =
    if (cs.isEmpty) None else Some(mbps(cs.map(_.rawBytes).sum, cs.map(_.compNs).sum))

  def decompRate(cs: Seq[CellResult]): Option[Double] =
    if (cs.isEmpty) None else Some(mbps(cs.map(_.rawBytes).sum, cs.map(_.decompNs).sum))

  def metrics(passes: Seq[PassRecord], setupS: Double, liveHeapMb: Double): Seq[Metric] = {
    val first = passes.head.cells.filter(_.ok)
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("pass_s", cellSamples(passes).map(best(_, _.wallNs)).sum / 1e9, "s"),
      Metric("comp_mbps", geomeanRate(passes, _.compNs), "MB/s"),
      Metric("decomp_mbps", geomeanRate(passes, _.decompNs), "MB/s"),
      Metric("cr_hmean", if (first.isEmpty) 0.0 else Stats.hmean(first.map(_.cr)), "ratio"),
      Metric("live_heap_mb", liveHeapMb, "MB"),
    )
  }

  /** The pass count, each pass's wall time and their median, and the cell
    * count behind the metrics.
    */
  def describeSamples(passes: Seq[PassRecord]): String = {
    val walls = passes.map(p => f"${p.wallNs / 1e9}%.3f").mkString(",")
    val median = Stats.median(passes.map(_.wallNs / 1e9))
    f"samples: passes=${passes.size} wall_s=[$walls] median_wall_s=$median%.3f " +
      s"cells=${passes.map(_.cells.count(_.ok)).sum}"
  }
}
