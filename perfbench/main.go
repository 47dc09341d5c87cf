// Command perfbench is the objallocd benchmark. One run drives one
// workload against the unmodified program for a fixed time, checks that
// the program's accounting is correct, and prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
// Run it from the repository root through the wrapper, which builds
// objallocd and this program from source first:
//
//	bash perfbench/run.sh --workload wire-volatile --seed 1 --seconds 30 --trace 0
//
// Workloads (each a closed loop of 2 clients, each client owning a
// disjoint half of the objects, sending a fixed stream per iteration):
//
//   - wire-volatile: the objallocd binary at -shards 2 -n 8 -t 3
//     -engine da, SC(0.25, 1), without -journal; 2 HTTP connections
//     post /v1/batch with 32 requests per batch over 1024 objects,
//     uniform, 30% writes, every request with its per-object seq.
//   - inproc-adaptive: server.New + Server.DoTraced from 2 goroutines in
//     a child process, -engine adaptive over 4096 objects, zipf-skewed
//     processors, and per client phases of 131072 requests alternating
//     read-heavy (20% writes) and write-heavy (80% writes) mixes: one
//     adaptive window (64 requests) per object and phase, so the
//     controller's window turns over within each phase and the
//     objects move to SA in read-heavy phases and back to DA in
//     write-heavy ones.
//
// An iteration starts a fresh server, sends the workload's stream,
// drains the server and checks its accounting; iterations repeat until
// --seconds have passed, and timings are medians over iterations.
//
// With --trace 1 the result holds the per-layer metrics instead of the
// end-to-end ones, and iterations cycle through four kinds: the plain
// workload untraced and traced (the daemon's -trace, the server's
// tracer in process), and its durable twin untraced and traced. The
// durable twin sends the first twinRequests requests of the same stream
// to the same server with a journal on the real disk (objallocd
// -journal, Config.Journal in process), so every fsync is real; it
// measures the journal, disk and recovery layers. A durable workload is
// not timed end to end: on a shared disk its throughput and latency
// spread by more than any bound that could still catch a regression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"objalloc/internal/adaptive"
	"objalloc/internal/cost"
	"objalloc/internal/server"
)

const (
	clients   = 2    // closed-loop clients, each owning half the objects
	batchSize = 32   // requests per HTTP batch (and per timed in-process batch)
	shards    = 2    // server shards
	procs     = 8    // processors (-n)
	threshold = 3    // availability threshold (-t)
	cc        = 0.25 // control-message price of SC(cc, cd)
	cd        = 1.0  // data-message price of SC(cc, cd)

	// traceSample is the tail-sampling rate of traced iterations:
	// batches share a trace ID, so whole batches are kept or dropped,
	// and the trace file stays small at any request rate.
	traceSample = 1.0 / 16

	// probeSyncs is the number of append+fsync calls of the disk probe
	// taken after each durable iteration.
	probeSyncs = 200

	// setupSamples is the number of server.New calls one in-process
	// iteration times; the wire workloads time one daemon start each.
	setupSamples = 64

	// twinRequests is the length of the durable twin's stream: the
	// first requests of the workload's own stream.
	twinRequests = 32768

	// minIterations is the least number of iterations of each kind one
	// run makes, whatever --seconds says.
	minIterations = 2

	// runLimit stops a run that would otherwise not finish in time.
	runLimit = 120 * time.Second
)

// workload is one named set of inputs. An iteration sends requests
// requests: at least 1000 batches, so each iteration's p99 has ten
// batches beyond it.
type workload struct {
	name     string
	wire     bool // through the objallocd binary over HTTP; else in process
	engine   server.Engine
	objects  int
	requests int // per iteration, over all clients
	stream   func(seed int64, client, length, objects int) []req
}

var workloads = []workload{
	{name: "wire-volatile", wire: true, engine: server.EngineDA,
		objects: 1024, requests: 32768, stream: wireStream},
	{name: "inproc-adaptive", engine: server.EngineAdaptive,
		objects: 4096, requests: 1048576, stream: adaptiveStream},
}

func wireStream(seed int64, client, length, objects int) []req {
	return uniformStream(seed, client, length, objects, 0.3)
}

// adaptivePhase is the length of one phase of a client's adaptive
// stream: its objects' share times the adaptive window, so each object
// sees about one window of requests per phase.
func adaptivePhase(objects int) int { return adaptive.DefaultWindow * objects / clients }

func adaptiveStream(seed int64, client, length, objects int) []req {
	return mixFlipStream(seed, client, length, objects, adaptivePhase(objects), 0.2, 0.8, 1.1)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the server configuration every run of the workload uses;
// daemonArgs renders the same configuration as objallocd flags.
func (w workload) config() server.Config {
	return server.Config{Shards: shards, N: procs, T: threshold, Model: cost.SC(cc, cd), Engine: w.engine}
}

func (w workload) daemonArgs() []string {
	return []string{"-shards", fmt.Sprint(shards), "-n", fmt.Sprint(procs), "-t", fmt.Sprint(threshold),
		"-engine", w.engine.String(), "-cc", fmt.Sprint(cc), "-cd", fmt.Sprint(cd)}
}

// streams generates every client's request stream for an iteration of
// the given length; a shorter stream is a prefix of a longer one.
func (w workload) streams(seed int64, requests int) [][]req {
	out := make([][]req, clients)
	for c := range out {
		out[c] = w.stream(seed, c, requests/clients, w.objects)
	}
	return out
}

// names maps object indices to object names ahead of any timed loop.
func (w workload) names() []string {
	out := make([]string, w.objects)
	for i := range out {
		out[i] = objectName(i)
	}
	return out
}

type options struct {
	workload  workload
	seed      int64
	seconds   int
	trace     bool
	objallocd string
	workdir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "inproc-child" {
		if err := inprocChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench inproc-child:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// errIncorrect marks a failed correctness check: the result is still
// printed, with "correct": false, and the exit code is 1.
var errIncorrect = errors.New("correctness check failed")

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: wire-volatile or inproc-adaptive")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs traced iterations beside untraced ones and reports the per-layer metrics")
	bin := fs.String("objallocd", "", "path of the objallocd binary built from this checkout")
	workdir := fs.String("workdir", "", "scratch directory for journals, stats and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *workdir == "" || (w.wire && *bin == "") {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0|1, --workdir, and --objallocd for wire workloads")
		return 2
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, objallocd: *bin}
	if w.wire {
		// The HTTP clients mostly wait on the network; one P keeps them
		// from contending with the daemon for the second CPU.
		runtime.GOMAXPROCS(1)
	}
	if opt.workdir, err = os.MkdirTemp(*workdir, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(opt.workdir)

	res, err := measure(opt)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", res.failure)
	}
	if serr := res.writeSpans(filepath.Dir(opt.workdir), opt); serr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", serr)
		return 2
	}
	res.printTables(os.Stdout, opt)
	line, jerr := json.Marshal(res.line(opt))
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 2
	}
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}
