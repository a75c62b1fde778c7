package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"smol"
	"smol/internal/codec/jpeg"
	"smol/internal/data"
	"smol/internal/engine"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/tensor"
)

// stillsConfig describes one still-image workload.
type stillsConfig struct {
	name string
	// qos is every request's serving target; entry is the zoo entry that
	// target requires.
	qos   smol.QoS
	entry string
	// sizes are the corpus's input classes (width x height).
	sizes [][2]int
	// request is the number of images per Classify request.
	request int
	// corpus is the number of distinct encoded images; renderRes the
	// square resolution scenes are drawn at before resizing to a size.
	corpus    int
	renderRes int
	sub       jpeg.Subsampling
	// dominant lists the layers expected to take the largest busy share.
	dominant []string
}

// stillsHD is the paper's preprocessing-bound regime: HD JPEGs with no
// accuracy floor, so the planner serves resnet-a@64 at 1/8 DCT-scaled
// decode and decode + preprocessing dominate.
var stillsHD = stillsConfig{
	name:      "stills-hd-relaxed",
	entry:     "resnet-a@64",
	sizes:     [][2]int{{1920, 1080}, {1280, 720}},
	request:   8,
	corpus:    20,
	renderRes: 270,
	sub:       jpeg.Sub420,
	dominant:  []string{"jpeg", "preproc"},
}

// stillsZoo is the three-entry zoo of the HD planner benchmark: accuracies
// are pinned, weights untrained (only geometry matters for speed).
var stillsZoo = []struct {
	variant string
	res     int
	acc     float64
}{
	{"resnet-b", 128, 0.95},
	{"resnet-a", 128, 0.88},
	{"resnet-a", 64, 0.80},
}

// servingBatch is the engine batch size of the stills server.
const servingBatch = 8

// stillsOut is a stills op's answer.
type stillsOut struct {
	req   []int // corpus indices of the request's images
	preds []int
	plan  smol.ServePlan
}

type stills struct {
	cfg     stillsConfig
	corpus  []smol.EncodedImage
	reqs    [][]int
	entries []smol.ZooEntry
	oracle  []int // the required entry's answer per corpus image

	srv *smol.Server
}

func newStills(cfg stillsConfig) *stills { return &stills{cfg: cfg} }

// prepare renders and encodes the corpus, draws the request sequence, and
// builds the zoo's model fixtures.
func (s *stills) prepare(seed int64, _ string) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < s.cfg.corpus; i++ {
		// Every seed draws the same mix of scene classes and sizes (each
		// class once per size), so decode cost does not depend on the seed.
		sz := s.cfg.sizes[(i/10)%len(s.cfg.sizes)]
		m := data.RenderImage(rng, i%10, 10, s.cfg.renderRes).ResizeBilinear(sz[0], sz[1])
		s.corpus = append(s.corpus, smol.EncodedImage{
			Data: jpeg.Encode(m, jpeg.EncodeOptions{Quality: 90, Subsampling: s.cfg.sub}),
		})
	}
	// More requests than any run issues; op ids wrap around if not.
	for i := 0; i < opSeqLen; i++ {
		req := make([]int, s.cfg.request)
		for j := range req {
			req[j] = rng.Intn(len(s.corpus))
		}
		s.reqs = append(s.reqs, req)
	}
	var err error
	s.entries, err = zooFixtures()
	return err
}

// zooFixtures builds the zoo's models from a fixed seed. Untrained
// networks give every input the same class, so each model's classifier
// bias is centred on a fixed calibration set (mean logit 0 per class):
// the argmax then depends on the image, and the oracle comparison can
// catch a permuted answer.
func zooFixtures() ([]smol.ZooEntry, error) {
	var entries []smol.ZooEntry
	for _, e := range stillsZoo {
		cfg, err := nn.VariantConfig(e.variant, 10, e.res)
		if err != nil {
			return nil, err
		}
		model, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
		if err != nil {
			return nil, err
		}
		if err := centreHead(model, e.res); err != nil {
			return nil, err
		}
		entries = append(entries, smol.ZooEntry{
			Variant: e.variant, InputRes: e.res, Accuracy: e.acc, Model: model, Config: cfg,
		})
	}
	return entries, nil
}

// centreHead shifts the final linear layer's bias so the mean logit of
// every class over a fixed set of rendered scenes is zero.
func centreHead(model *nn.Model, res int) error {
	const n = 10
	rng := rand.New(rand.NewSource(99))
	x := tensor.New(n, 3, res, res)
	per := 3 * res * res
	for i := 0; i < n; i++ {
		s := data.ToSample(data.RenderImage(rng, i, 10, res), i)
		copy(x.Data[i*per:(i+1)*per], s.X.Data)
	}
	plan, err := nn.Compile(model)
	if err != nil {
		return err
	}
	logits := plan.Forward(x)
	lin, ok := model.Layers[len(model.Layers)-1].(*nn.Linear)
	if !ok {
		return fmt.Errorf("model does not end in a linear classifier")
	}
	k := logits.Shape[1]
	for c := 0; c < k; c++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(logits.Data[i*k+c])
		}
		lin.B.Data[c] -= float32(sum / n)
	}
	return nil
}

// setup builds the zoo runtime and warm server and runs the first request
// (which calibrates the planner).
func (s *stills) setup(ctx context.Context) (time.Duration, error) {
	if s.srv != nil {
		s.srv.Close()
	}
	zoo := smol.NewZoo()
	for _, e := range s.entries {
		if err := zoo.Add(e); err != nil {
			return 0, err
		}
	}
	rt, err := smol.NewZooRuntime(zoo, smol.RuntimeConfig{BatchSize: servingBatch})
	if err != nil {
		return 0, err
	}
	srv, err := rt.Serve()
	if err != nil {
		return 0, err
	}
	s.srv = srv
	start := time.Now()
	if _, err := srv.ClassifyQoS(ctx, s.inputs(s.reqs[0]), s.cfg.qos); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (s *stills) inputs(req []int) []smol.EncodedImage {
	in := make([]smol.EncodedImage, len(req))
	for j, i := range req {
		in[j] = s.corpus[i]
	}
	return in
}

// buildOracle classifies the whole corpus one-shot with a single-model
// runtime of the required entry. It never sets DisableSIMD: that knob flips
// the process-wide f32 kernel and would move the server under test to the
// portable tier; the f32 tiers are bit-identical, so it is not needed.
func (s *stills) buildOracle() error {
	var ent *smol.ZooEntry
	for i := range s.entries {
		if s.entries[i].Name() == s.cfg.entry {
			ent = &s.entries[i]
		}
	}
	if ent == nil {
		return fmt.Errorf("zoo has no entry %s", s.cfg.entry)
	}
	ort, err := smol.NewRuntime(ent.Model, smol.RuntimeConfig{InputRes: ent.InputRes, BatchSize: servingBatch})
	if err != nil {
		return err
	}
	res, err := ort.Classify(s.corpus)
	if err != nil {
		return err
	}
	s.oracle = res.Predictions
	classes := map[int]bool{}
	for _, p := range s.oracle {
		classes[p] = true
	}
	if len(classes) < 2 {
		return fmt.Errorf("oracle gives every corpus image class %d; a permuted answer would go unnoticed", s.oracle[0])
	}
	return nil
}

func (s *stills) op(ctx context.Context, id int) *opRecord {
	req := s.reqs[id%len(s.reqs)]
	res, err := s.srv.ClassifyQoS(ctx, s.inputs(req), s.cfg.qos)
	return &opRecord{kind: "classify", err: err, stats: res.Stats,
		kernel: res.Plan.Kernel, plan: fmt.Sprintf("%s decode 1/%d", res.Plan.Entry, res.Plan.DecodeScale),
		out: &stillsOut{req: req, preds: res.Predictions, plan: res.Plan}}
}

func (s *stills) images(rec *opRecord) int {
	if rec.err != nil {
		return 0
	}
	return len(rec.out.(*stillsOut).preds)
}

func (s *stills) counts(rec *opRecord) map[string]float64 {
	o := rec.out.(*stillsOut)
	return map[string]float64{
		"images":            float64(rec.stats.Images),
		"batches":           float64(rec.stats.Batches),
		"queue_full_stalls": float64(rec.stats.QueueFullStalls),
		"pool_allocs":       float64(rec.stats.PoolAllocs),
		"pool_reuses":       float64(rec.stats.PoolReuses),
		"mean_latency_us":   us(rec.stats.MeanLatency),
		"decode_scale":      float64(o.plan.DecodeScale),
	}
}

func (s *stills) check(_ context.Context, recs []*opRecord) error {
	if s.oracle == nil {
		if err := s.buildOracle(); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		o := r.out.(*stillsOut)
		if r.fail = checkEntry(o.plan.Entry, s.cfg.entry); r.fail != "" {
			continue
		}
		want := make([]int, len(o.req))
		for j, i := range o.req {
			want[j] = s.oracle[i]
		}
		r.fail = checkPredictions(o.preds, want)
	}
	return nil
}

func (s *stills) finish(context.Context) ([]string, error) { return nil, nil }

func (s *stills) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}

func (s *stills) dominant() []string { return s.cfg.dominant }

// replay runs each traced request's images back through the exported layer
// functions with the plan the request reported: header parse and joint
// decode/preprocessing plan (preproc.Optimize, once per input class as the
// server's plan cache does), scaled decode, the residual preprocessing
// chain, the compiled forward at the serving batch size, and a no-op
// engine pipeline of the same shape.
func (s *stills) replay(ctx context.Context, traced []*opRecord, tr *tracer, m metrics) error {
	var ent smol.ZooEntry
	for _, e := range s.entries {
		if e.Name() == s.cfg.entry {
			ent = e
		}
	}
	res := ent.InputRes
	setupSpan := tr.open("replay.setup", -1, 0)
	var iplan *nn.InferencePlan
	if err := tr.timed("nn.compile", -1, setupSpan, func() (err error) {
		iplan, err = nn.Compile(ent.Model)
		return err
	}); err != nil {
		return err
	}
	var pipe *engine.Pipeline
	if err := tr.timed("engine.new_pipeline", -1, setupSpan, func() (err error) {
		pipe, err = engine.NewPipeline(engine.Config{Shapes: [][3]int{{3, res, res}}, BatchSize: servingBatch},
			func(*engine.WorkerState, engine.Job, *tensor.Tensor) error { return nil },
			func(*tensor.Tensor, []engine.Ref) error { return nil })
		return err
	}); err != nil {
		return err
	}
	defer pipe.Close()
	tr.close(setupSpan)

	plans := map[[2]int]preproc.Plan{}
	ex := preproc.NewExecutor()
	batch := tensor.New(s.cfg.request, 3, res, res)
	per := 3 * res * res
	preds := make([]int, s.cfg.request)
	macs := ent.Config.FLOPsPerImage() / 2
	normMean, normStd := [3]float32{}, [3]float32{1, 1, 1}

	var decode, prep, fwd, overhead time.Duration
	var nDecode, nFwd int
	var waits []float64
	for i, r := range traced {
		if r.failed() || i >= maxReplayOps {
			continue
		}
		o := r.out.(*stillsOut)
		root := tr.open("replay.classify", r.id, r.span)
		var opPrep time.Duration
		for j, idx := range o.req {
			enc := s.corpus[idx].Data
			w, h, err := jpeg.DecodeHeader(enc)
			if err != nil {
				return err
			}
			plan, ok := plans[[2]int{w, h}]
			if !ok {
				if err := tr.timed("preproc.optimize", r.id, root, func() (err error) {
					plan, err = preproc.Optimize(preproc.ServeSpec(w, h, res, normMean, normStd, jpeg.SupportedScales()))
					return err
				}); err != nil {
					return err
				}
				plans[[2]int{w, h}] = plan
			}
			t0 := time.Now()
			img, _, _, err := jpeg.DecodeWithOptions(enc, jpeg.DecodeOptions{Scale: plan.DecodeScale()})
			t1 := time.Now()
			tr.record("jpeg.decode", r.id, root, t0, t1, map[string]float64{"scale": float64(plan.DecodeScale())})
			if err != nil {
				return err
			}
			out := &tensor.Tensor{Shape: []int{3, res, res}, Data: batch.Data[j*per : (j+1)*per]}
			err = ex.Execute(plan.ResidualAfterDecode(), img, out)
			t2 := time.Now()
			tr.record("preproc.execute", r.id, root, t1, t2, nil)
			if err != nil {
				return err
			}
			decode += t1.Sub(t0)
			prep += t2.Sub(t1)
			opPrep += t2.Sub(t0)
			nDecode++
		}
		n := len(o.req)
		x := &tensor.Tensor{Shape: []int{n, 3, res, res}, Data: batch.Data[:n*per]}
		t0 := time.Now()
		iplan.PredictInto(x, preds[:n])
		t1 := time.Now()
		tr.record("nn.forward", r.id, root, t0, t1, map[string]float64{"batch": float64(n)})
		fwd += t1.Sub(t0)
		nFwd += n
		jobs := make([]engine.Job, n)
		for j := range jobs {
			jobs[j] = engine.Job{Index: j}
		}
		t2 := time.Now()
		if _, err := pipe.Process(ctx, engine.SliceSource(jobs)); err != nil {
			return err
		}
		t3 := time.Now()
		tr.record("engine.process", r.id, root, t2, t3, map[string]float64{"jobs": float64(n)})
		overhead += t3.Sub(t2)
		tr.close(root)
		// A sample's engine latency is its own prep, the wait for its
		// batch, and its batch's forward; what the replay does not account
		// for is waiting.
		if r.stats.Batches > 0 {
			perBatch := t1.Sub(t0) / time.Duration(n) * time.Duration(r.stats.Images) / time.Duration(r.stats.Batches)
			waits = append(waits, ms(r.stats.MeanLatency-opPrep/time.Duration(n)-perBatch))
		}
	}
	m.set("jpeg.decode_us", us(decode)/float64(nDecode), nDecode)
	m.set("preproc.us_per_image", us(prep)/float64(nDecode), nDecode)
	m.set("nn.forward_us_per_image", us(fwd)/float64(nFwd), nFwd)
	m.set("nn.gmacs_per_s", macs*float64(nFwd)/fwd.Seconds()/1e9, nFwd)
	m.set("engine.overhead_us_per_image", us(overhead)/float64(nFwd), nFwd)
	m.set("engine.wait_ms_per_image", mean(waits), len(waits))
	engineOpMetrics(traced, servingBatch, m)

	var predTput, predLat, maxLat []float64
	for _, r := range traced {
		if r.err != nil {
			continue
		}
		o := r.out.(*stillsOut)
		predTput = append(predTput, o.plan.PredictedThroughput)
		predLat = append(predLat, o.plan.PredictedLatencyUS)
		maxLat = append(maxLat, us(r.stats.MaxLatency))
	}
	// Measured throughput is the untraced rounds' median.
	m.set("smol.pred_tput_ratio", mean(predTput)/m["images_per_s"].value, len(predTput))
	m.set("smol.pred_latency_ratio", mean(predLat)/median(maxLat), len(maxLat))
	return nil
}
