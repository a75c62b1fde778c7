package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"smol"
)

// Video-store workload geometry. The clips use the 15-frame GOP of the
// repo's selection benchmark, so GOP seek and GOP pruning have work to
// skip.
const (
	clipRes       = 128  // primary stream frame edge
	clipFrames    = 120  // frames per clip
	clipGOP       = 15   // I-frame interval
	clipQuality   = 80   // encoder quality
	blobFrac      = 0.10 // share of frames carrying a blob
	clipBlob      = 21   // blob radius in clip frames
	initialClips  = 2    // clips ingested during set-up
	renditionEdge = 64   // short edge of the rendition materialized at ingest
	videoBatch    = 8    // engine batch size of the video server
	modelRes      = 16   // the blob classifier's input resolution
	classifyEvery = 10   // ClassifyVideoStored stride
	selectLimit   = 10   // SELECT LIMIT K
	selectMinConf = 0.9  // SELECT proxy confidence floor
	aggErrTarget  = 0.02 // EstimateMeanStored CI half-width target
	// ingestClips is how many distinct clips the ingest ops cycle
	// through. Most queries land on ingested videos, and a clip's blob
	// layout sets their decode work, so a run averages over several.
	ingestClips = 6
	// aggSeeds is how many sampling seeds a run's aggregates draw from:
	// the frames a seed samples set the op's decode work, so one seed per
	// run would make the run's aggregate cost hinge on it.
	aggSeeds = 8
)

// videoMix is one cycle of the op sequence: each cycle runs these ops in a
// seeded order, so every run has the same mix whatever its length. The
// counts give each op kind a target share of client time: the three query
// kinds an equal share, and ingest a fifth, so that writes beside reads
// weigh on the end-to-end figures (an ingest about 2.7x slower alone moves
// ops_per_s past its 0.25 bound). They follow from the per-op p50 latencies
// measured at this geometry on a 2-vCPU Xeon with the AVX2 kernel (select
// 13 ms, classify 12.5 ms, aggregate 40 ms, ingest 430 ms): 90x13, 90x12.5,
// 30x40 and 2x430 ms are 27, 26, 27 and 20% of a 4.4 s cycle, and each
// 6 s round of a 30 s run holds 3 to 5 ingests.
var videoMix = []struct {
	kind  string
	count int
}{
	{"select", 90},
	{"classify_video", 90},
	{"aggregate", 30},
	{"ingest", 2},
}

// clip is one generated video: its encoding and which frames carry a blob.
type clip struct {
	data  []byte
	truth []bool
}

// storedVideo is a video the live store holds.
type storedVideo struct {
	name    string
	v       *smol.StoredVideo
	content int // index into videoStore.clips
}

// videoOp is one op of the seeded sequence.
type videoOp struct {
	kind string
	pick int   // chooses the target video among those stored at op start
	seed int64 // an aggregate's sampling seed
}

// videoOut is a video op's answer and counters.
type videoOut struct {
	video *storedVideo
	sel   smol.SelectResult
	cls   smol.VideoResult
	agg   smol.AggregateResult
	// ingested is set by ingest ops; written is the bytes the ingest put
	// in the store, input the bytes it was given.
	ingested       *storedVideo
	written, input int64
	// seed is an aggregate's sampling seed. truthMean is its model's mean
	// verdict over every frame of the served stream; set by the checker.
	seed      int64
	truthMean float64
}

type videoStore struct {
	scratch string
	clf     *smol.Classifier
	clips   []clip // initial clips first, then the ingest pool
	seq     []videoOp

	srv *smol.Server
	ms  *smol.MediaStore
	dir string
	// reopen is how long the end-of-run store reopen took.
	reopen time.Duration
	// setups counts set-ups, setupsPrimary those whose first SELECT the
	// planner verified on the primary stream rather than the rendition.
	setups, setupsPrimary int

	mu     sync.Mutex
	videos []*storedVideo
	// picked is the video each query op of the sequence targeted, so that
	// a traced run's repeat of an op queries the same video.
	picked map[int]*storedVideo

	oracle videoOracles
	selSrv *smol.Server // DisableProxyCascade
	seqSrv *smol.Server // DisableGOPSeek
}

func newVideoStore() workload { return &videoStore{} }

func (w *videoStore) dominant() []string { return []string{"vid", "store", "blazeit"} }

// prepare trains the blob presence classifier (a fixed fixture), encodes
// the seeded clips and draws the op sequence.
func (w *videoStore) prepare(seed int64, scratch string) error {
	w.scratch = scratch
	clf, err := trainBlobClassifier()
	if err != nil {
		return err
	}
	w.clf = clf
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < initialClips+ingestClips; i++ {
		c, err := blobClip(rng)
		if err != nil {
			return err
		}
		w.clips = append(w.clips, c)
	}

	seeds := make([]int64, aggSeeds)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	for len(w.seq) < opSeqLen {
		var cycle []videoOp
		for _, k := range videoMix {
			for i := 0; i < k.count; i++ {
				cycle = append(cycle, videoOp{kind: k.kind})
			}
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for i := range cycle {
			cycle[i].pick = rng.Intn(1 << 30)
			if cycle[i].kind == "aggregate" {
				cycle[i].seed = seeds[rng.Intn(aggSeeds)]
			}
		}
		w.seq = append(w.seq, cycle...)
	}
	w.seq = w.seq[:opSeqLen]
	return nil
}

// trainBlobClassifier trains the presence detector of the selection
// benchmarks: class 1 = one bright blob, class 0 = empty frame, 16px.
// Training is deterministic, so every run serves the same model.
func trainBlobClassifier() (*smol.Classifier, error) {
	rng := rand.New(rand.NewSource(11))
	var train []smol.LabeledImage
	for i := 0; i < 192; i++ {
		c := i % 2
		train = append(train, smol.LabeledImage{Image: blobFrame(rng, modelRes, c == 1, 1), Label: c})
	}
	return smol.TrainClassifier(train, 2, smol.TrainOptions{Epochs: 5, Seed: 3})
}

// blobFrame draws a dark noisy frame, optionally with one bright blob of
// radius r.
func blobFrame(rng *rand.Rand, res int, blob bool, r int) *smol.Image {
	m := smol.NewImage(res, res)
	for y := 0; y < res; y++ {
		for x := 0; x < res; x++ {
			m.Set(x, y, uint8(36+rng.Intn(8)), uint8(36+rng.Intn(8)), uint8(56+rng.Intn(8)))
		}
	}
	if blob {
		cx := res/4 + rng.Intn(res/2)
		cy := res/4 + rng.Intn(res/2)
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x, y := cx+dx, cy+dy
				if x >= 0 && x < res && y >= 0 && y < res {
					m.Set(x, y, 240, 240, uint8(190+rng.Intn(20)))
				}
			}
		}
	}
	return m
}

// blobClip encodes a clip in which a seeded blobFrac of the frames carry
// one blob.
func blobClip(rng *rand.Rand) (clip, error) {
	truth := make([]bool, clipFrames)
	for _, f := range rng.Perm(clipFrames)[:int(blobFrac*clipFrames)] {
		truth[f] = true
	}
	frames := make([]*smol.Image, clipFrames)
	for f := range frames {
		frames[f] = blobFrame(rng, clipRes, truth[f], clipBlob)
	}
	data, err := smol.EncodeVideo(frames, clipQuality, clipGOP)
	return clip{data: data, truth: truth}, err
}

var ingestOpts = smol.IngestOptions{RenditionShortEdges: []int{renditionEdge}, ProxyScores: true}

var (
	selectOpts   = smol.SelectOpts{Class: 1, MinConf: selectMinConf, Limit: selectLimit, Deblock: smol.DeblockOn}
	classifyOpts = smol.VideoOpts{Stride: classifyEvery, Deblock: smol.DeblockOn}
)

func aggOpts(seed int64) smol.AggregateOpts {
	return smol.AggregateOpts{ErrTarget: aggErrTarget, Deblock: smol.DeblockOn, Seed: seed}
}

// setup builds the runtime and warm server, opens a fresh store, ingests
// the initial clips and runs the first SELECT (which calibrates the video
// planner).
func (w *videoStore) setup(ctx context.Context) (time.Duration, error) {
	w.teardown()
	rt, err := smol.NewRuntime(w.clf.Model, smol.RuntimeConfig{InputRes: modelRes, BatchSize: videoBatch})
	if err != nil {
		return 0, err
	}
	if w.srv, err = rt.Serve(); err != nil {
		return 0, err
	}
	if w.dir, err = os.MkdirTemp(w.scratch, "store-"); err != nil {
		return 0, err
	}
	if w.ms, err = smol.OpenMediaStore(w.dir); err != nil {
		return 0, err
	}
	for i := 0; i < initialClips; i++ {
		name := fmt.Sprintf("clip-%d", i)
		v, err := w.ms.IngestVideo(name, w.clips[i].data, ingestOpts)
		if err != nil {
			return 0, err
		}
		w.videos = append(w.videos, &storedVideo{name: name, v: v, content: i})
	}
	start := time.Now()
	res, err := w.srv.SelectVideo(ctx, w.videos[0].v, selectOpts)
	if err != nil {
		return 0, err
	}
	first := time.Since(start)
	w.setups++
	if res.Plan.Verify.Stream == 0 {
		w.setupsPrimary++
	}
	return first, nil
}

// teardown releases the live server and store and removes the store's
// files.
func (w *videoStore) teardown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.ms != nil {
		w.ms.Close()
		w.ms = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
	w.videos = nil
	w.picked = map[int]*storedVideo{}
}

func (w *videoStore) close() {
	w.teardown()
	w.closeOracles()
}

// pickVideo returns the target of op id: the video its first run picked,
// or one of the videos stored now.
func (w *videoStore) pickVideo(id, pick int) *storedVideo {
	w.mu.Lock()
	defer w.mu.Unlock()
	sv, ok := w.picked[id%opSeqLen]
	if !ok {
		sv = w.videos[pick%len(w.videos)]
		w.picked[id%opSeqLen] = sv
	}
	return sv
}

func (w *videoStore) op(ctx context.Context, id int) *opRecord {
	sop := w.seq[id%opSeqLen]
	out := &videoOut{}
	rec := &opRecord{kind: sop.kind, out: out}
	if sop.kind == "ingest" {
		c := initialClips + id%opSeqLen%ingestClips
		name := fmt.Sprintf("ingest-%d", id)
		v, err := w.ms.IngestVideo(name, w.clips[c].data, ingestOpts)
		if rec.err = err; err != nil {
			return rec
		}
		sv := &storedVideo{name: name, v: v, content: c}
		out.ingested = sv
		out.input = int64(len(w.clips[c].data))
		out.written = storeBytes(w.ms.Dir(), name)
		w.mu.Lock()
		w.videos = append(w.videos, sv)
		w.mu.Unlock()
		return rec
	}
	sv := w.pickVideo(id, sop.pick)
	out.video = sv
	switch sop.kind {
	case "select":
		out.sel, rec.err = w.srv.SelectVideo(ctx, sv.v, selectOpts)
		rec.stats, rec.kernel = out.sel.Stats, out.sel.Plan.Verify.Kernel
		rec.plan = fmt.Sprintf("verify stream %d, proxy %s on stream %d", out.sel.Plan.Verify.Stream, out.sel.Plan.Proxy, out.sel.Plan.ProxyStream)
	case "classify_video":
		out.cls, rec.err = w.srv.ClassifyVideoStored(ctx, sv.v, classifyOpts)
		rec.stats, rec.kernel = out.cls.Stats, out.cls.Plan.Kernel
		rec.plan = fmt.Sprintf("stream %d", out.cls.Plan.Stream)
	case "aggregate":
		out.seed = sop.seed
		out.agg, rec.err = w.srv.EstimateMeanStored(ctx, sv.v, aggOpts(sop.seed))
		rec.kernel = out.agg.Plan.Kernel
		rec.plan = fmt.Sprintf("stream %d, cached scores %v", out.agg.Plan.Stream, out.agg.ProxyCached)
	}
	return rec
}

// storeBytes sums the sizes of the store files of one video.
func storeBytes(dir, name string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), name+".") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

func (w *videoStore) images(rec *opRecord) int {
	if rec.err != nil {
		return 0
	}
	if rec.kind == "aggregate" {
		return rec.out.(*videoOut).agg.TargetInvocations
	}
	return rec.stats.Images
}

func (w *videoStore) counts(rec *opRecord) map[string]float64 {
	o := rec.out.(*videoOut)
	c := map[string]float64{
		"images":            float64(rec.stats.Images),
		"batches":           float64(rec.stats.Batches),
		"queue_full_stalls": float64(rec.stats.QueueFullStalls),
		"pool_allocs":       float64(rec.stats.PoolAllocs),
		"pool_reuses":       float64(rec.stats.PoolReuses),
	}
	var dec smol.VideoDecodeStats
	switch rec.kind {
	case "select":
		dec = o.sel.Decode
		c["oracle_invocations"] = float64(o.sel.OracleInvocations)
		c["proxy_invocations"] = float64(o.sel.ProxyInvocations)
		c["gops_touched"] = float64(o.sel.GOPsTouched)
		c["gops_total"] = float64(o.sel.GOPsTotal)
		c["frames_found"] = float64(len(o.sel.Frames))
		c["predicted_cost_us"] = o.sel.Plan.PredictedCostUS
	case "classify_video":
		dec = o.cls.Decode
		c["samples"] = float64(len(o.cls.Predictions))
	case "aggregate":
		dec = o.agg.Decode
		c["target_invocations"] = float64(o.agg.TargetInvocations)
		c["frames"] = float64(o.agg.Frames)
	case "ingest":
		c["bytes_written"] = float64(o.written)
		c["bytes_input"] = float64(o.input)
	}
	c["frames_decoded"] = float64(dec.FramesDecoded)
	c["gop_seeks"] = float64(dec.GOPSeeks)
	c["frames_bypassed"] = float64(dec.FramesBypassed)
	return c
}

// finish checks durability: every video the store took in must survive a
// close and reopen with its frame count, and one SELECT per video must
// answer as before. The reopen is timed as store.reopen_ms.
func (w *videoStore) finish(ctx context.Context) ([]string, error) {
	if n := w.oracle.rebuilt; n > 0 {
		fmt.Printf("oracle: %d answers compared with the full decode rebuilt from the layer functions (the oracle server planned other streams)\n", n)
	}
	w.mu.Lock()
	videos := append([]*storedVideo(nil), w.videos...)
	w.mu.Unlock()
	before := make([][]int, len(videos))
	for i, sv := range videos {
		res, err := w.srv.SelectVideo(ctx, sv.v, selectOpts)
		if err != nil {
			return nil, err
		}
		before[i] = res.Frames
	}
	if err := w.ms.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	ms, err := smol.OpenMediaStore(w.dir)
	w.reopen = time.Since(start)
	if err != nil {
		w.ms = nil
		return []string{fmt.Sprintf("store: reopen failed: %v", err)}, nil
	}
	w.ms = ms
	var fails []string
	for i, sv := range videos {
		v, ok := ms.Video(sv.name)
		if !ok {
			fails = append(fails, fmt.Sprintf("store: %s missing after reopen", sv.name))
			continue
		}
		if got := v.Info().Frames; got != clipFrames {
			fails = append(fails, fmt.Sprintf("store: %s has %d frames after reopen, want %d", sv.name, got, clipFrames))
			continue
		}
		res, err := w.srv.SelectVideo(ctx, v, selectOpts)
		if err != nil {
			fails = append(fails, fmt.Sprintf("store: select on reopened %s: %v", sv.name, err))
			continue
		}
		if f := checkSelect(res.Frames, before[i], w.clips[sv.content].truth); f != "" {
			fails = append(fails, fmt.Sprintf("store: reopened %s: %s", sv.name, f))
		}
	}
	if got, want := ms.Len(), len(videos); got != want {
		fails = append(fails, fmt.Sprintf("store: %d videos after reopen, want %d", got, want))
	}
	return fails, nil
}
