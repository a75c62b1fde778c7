package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"smol"
	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/img"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/store"
	"smol/internal/tensor"
)

// The video oracles. Each server calibrates its planner on its own live
// measurements, so the oracle servers may route a query to another
// rendition than the server under test did, and a different rendition can
// change the model's verdict on a frame. An answer is therefore compared
// with the oracle of the same plan: the oracle server's when it planned
// the same streams, otherwise the same full decode rebuilt from the layer
// functions over the op's streams (counted in the result as a rebuilt
// oracle).

// selKey identifies a SELECT answer: the clip, and the streams its plan
// verified and scored on.
type selKey struct{ content, verify, proxy int }

// streamKey identifies one stream of one clip.
type streamKey struct{ content, stream int }

// aggKey identifies an aggregate answer: the stream it served and its
// sampling seed.
type aggKey struct {
	streamKey
	seed int64
}

// videoOracles memoizes the reference answers.
type videoOracles struct {
	mu      sync.Mutex
	sel     map[selKey][]int
	cls     map[streamKey][]int
	agg     map[aggKey]float64
	verdict map[streamKey][]int // the model's verdict on every frame
	rebuilt int                 // answers taken from the rebuilt full decode
	plan    *nn.InferencePlan   // the model, compiled for rebuilt full decodes
}

// openOracles brings up the two oracle servers over the same model: the
// SELECT full scan (DisableProxyCascade) and the sequential sampling path
// (DisableGOPSeek). Answers are computed when a check first needs them and
// kept for later rounds; the servers are closed after each check.
func (w *videoStore) openOracles() error {
	for _, o := range []struct {
		cfg smol.RuntimeConfig
		dst **smol.Server
	}{
		{smol.RuntimeConfig{InputRes: modelRes, BatchSize: videoBatch, DisableProxyCascade: true}, &w.selSrv},
		{smol.RuntimeConfig{InputRes: modelRes, BatchSize: videoBatch, DisableGOPSeek: true}, &w.seqSrv},
	} {
		rt, err := smol.NewRuntime(w.clf.Model, o.cfg)
		if err != nil {
			return err
		}
		if *o.dst, err = rt.Serve(); err != nil {
			return err
		}
	}
	if w.oracle.plan != nil {
		return nil
	}
	plan, err := nn.Compile(w.clf.Model)
	if err != nil {
		return err
	}
	w.oracle = videoOracles{
		sel: map[selKey][]int{}, cls: map[streamKey][]int{},
		agg: map[aggKey]float64{}, verdict: map[streamKey][]int{}, plan: plan,
	}
	return nil
}

// closeOracles closes the oracle servers.
func (w *videoStore) closeOracles() {
	for _, s := range []**smol.Server{&w.selSrv, &w.seqSrv} {
		if *s != nil {
			(*s).Close()
			*s = nil
		}
	}
}

// streamData returns the bytes of one stream of a stored video: the
// generated clip, or a rendition read back from the store's files.
func (w *videoStore) streamData(sv *storedVideo, stream int) ([]byte, error) {
	if stream == 0 {
		return w.clips[sv.content].data, nil
	}
	return os.ReadFile(filepath.Join(w.dir, fmt.Sprintf("%s.r%d.svid", sv.name, stream-1)))
}

// selectOracle returns the full-scan answer under the op's plan.
func (w *videoStore) selectOracle(ctx context.Context, sv *storedVideo, plan smol.SelectPlan) ([]int, error) {
	o := &w.oracle
	o.mu.Lock()
	defer o.mu.Unlock()
	key := selKey{sv.content, plan.Verify.Stream, plan.ProxyStream}
	if f, ok := o.sel[key]; ok {
		return f, nil
	}
	res, err := w.selSrv.SelectVideo(ctx, sv.v, selectOpts)
	if err != nil {
		return nil, fmt.Errorf("full-scan select: %w", err)
	}
	if res.Plan.Proxy == blazeit.BlobProxyName {
		o.sel[selKey{sv.content, res.Plan.Verify.Stream, res.Plan.ProxyStream}] = res.Frames
	}
	if f, ok := o.sel[key]; ok {
		return f, nil
	}
	if plan.Proxy != blazeit.BlobProxyName {
		return nil, fmt.Errorf("no oracle for proxy %s", plan.Proxy)
	}
	verify, err := w.streamData(sv, plan.Verify.Stream)
	if err != nil {
		return nil, err
	}
	preds, err := o.fullDecode(verify, 1)
	if err != nil {
		return nil, err
	}
	proxy, err := w.streamData(sv, plan.ProxyStream)
	if err != nil {
		return nil, err
	}
	info, err := vid.Probe(proxy)
	if err != nil {
		return nil, err
	}
	raw, _, err := store.BlobScores(store.Stream{Data: proxy, Info: info})
	if err != nil {
		return nil, err
	}
	var matched []blazeit.Candidate
	for f, p := range preds {
		if sc := blazeit.ClassScore(raw[f], selectOpts.Class); p == selectOpts.Class && sc >= selectOpts.MinConf {
			matched = append(matched, blazeit.Candidate{Frame: f, Score: sc})
		}
	}
	blazeit.RankCandidates(matched)
	matched = matched[:min(len(matched), selectOpts.Limit)]
	frames := make([]int, len(matched))
	for i, c := range matched {
		frames[i] = c.Frame
	}
	sort.Ints(frames)
	o.sel[key] = frames
	o.rebuilt++
	return frames, nil
}

// classifyOracle returns the sequential-decode answer under the op's
// plan.
func (w *videoStore) classifyOracle(ctx context.Context, sv *storedVideo, plan smol.ServePlan) ([]int, error) {
	o := &w.oracle
	o.mu.Lock()
	defer o.mu.Unlock()
	key := streamKey{sv.content, plan.Stream}
	if p, ok := o.cls[key]; ok {
		return p, nil
	}
	res, err := w.seqSrv.ClassifyVideoStored(ctx, sv.v, classifyOpts)
	if err != nil {
		return nil, fmt.Errorf("sequential classify: %w", err)
	}
	o.cls[streamKey{sv.content, res.Plan.Stream}] = res.Predictions
	if p, ok := o.cls[key]; ok {
		return p, nil
	}
	data, err := w.streamData(sv, plan.Stream)
	if err != nil {
		return nil, err
	}
	preds, err := o.fullDecode(data, classifyEvery)
	if err != nil {
		return nil, err
	}
	o.cls[key] = preds
	o.rebuilt++
	return preds, nil
}

// aggregateOracle returns EstimateMean over the raw streams with the
// op's seed, and the model's mean verdict over every frame of the served
// stream (what the estimate's interval should cover).
func (w *videoStore) aggregateOracle(ctx context.Context, sv *storedVideo, plan smol.ServePlan, seed int64) (est, truth float64, err error) {
	o := &w.oracle
	o.mu.Lock()
	defer o.mu.Unlock()
	sk := streamKey{sv.content, plan.Stream}
	data, err := w.streamData(sv, plan.Stream)
	if err != nil {
		return 0, 0, err
	}
	preds, ok := o.verdict[sk]
	if !ok {
		if preds, err = o.fullDecode(data, 1); err != nil {
			return 0, 0, err
		}
		o.verdict[sk] = preds
	}
	var sum float64
	for _, p := range preds {
		sum += float64(p)
	}
	truth = sum / float64(len(preds))
	key := aggKey{sk, seed}
	if e, ok := o.agg[key]; ok {
		return e, truth, nil
	}

	var variants [][]byte
	for i := range sv.v.Renditions() {
		r, err := w.streamData(sv, i+1)
		if err != nil {
			return 0, 0, err
		}
		variants = append(variants, r)
	}
	opts := aggOpts(seed)
	opts.Variants = variants
	res, err := w.srv.EstimateMean(ctx, w.clips[sv.content].data, opts)
	if err != nil {
		return 0, 0, fmt.Errorf("raw-stream estimate: %w", err)
	}
	if res.Plan.Stream == plan.Stream {
		o.agg[key] = res.Estimate
		return res.Estimate, truth, nil
	}
	info, err := vid.Probe(data)
	if err != nil {
		return 0, 0, err
	}
	spec, _, err := store.BlobScores(store.Stream{Data: data, Info: info})
	if err != nil {
		return 0, 0, err
	}
	r, err := blazeit.EstimateMean(spec, func(f int) float64 { return float64(preds[f]) },
		blazeit.Config{ErrTarget: aggErrTarget, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	o.agg[key] = r.Estimate
	o.rebuilt++
	return r.Estimate, truth, nil
}

// fullDecode decodes a stream front to back with deblocking on, and
// classifies every stride-th frame through the serving preprocessing
// chain and the compiled model.
func (o *videoOracles) fullDecode(data []byte, stride int) ([]int, error) {
	dec, err := vid.NewDecoder(data, vid.DecodeOptions{})
	if err != nil {
		return nil, err
	}
	plan, err := preproc.Optimize(preproc.ServeSpec(dec.Width(), dec.Height(), modelRes,
		[3]float32{}, [3]float32{1, 1, 1}, nil))
	if err != nil {
		return nil, err
	}
	resid := plan.ResidualAfterDecode()
	ex := preproc.NewExecutor()
	per := 3 * modelRes * modelRes
	var preds []int
	batch := tensor.New(videoBatch, 3, modelRes, modelRes)
	out := make([]int, videoBatch)
	n := 0
	flush := func() {
		x := &tensor.Tensor{Shape: []int{n, 3, modelRes, modelRes}, Data: batch.Data[:n*per]}
		o.plan.PredictInto(x, out[:n])
		preds = append(preds, out[:n]...)
		n = 0
	}
	var dst *img.Image
	for f := 0; f < dec.NumFrames(); f++ {
		if f%stride != 0 {
			if err := dec.Skip(); err != nil {
				return nil, err
			}
			continue
		}
		m, err := dec.NextInto(dst)
		if err != nil {
			return nil, err
		}
		dst = m
		x := &tensor.Tensor{Shape: []int{3, modelRes, modelRes}, Data: batch.Data[n*per : (n+1)*per]}
		if err := ex.Execute(resid, m, x); err != nil {
			return nil, err
		}
		if n++; n == videoBatch {
			flush()
		}
	}
	if n > 0 {
		flush()
	}
	return preds, nil
}

func (w *videoStore) check(ctx context.Context, recs []*opRecord) error {
	defer w.closeOracles()
	if err := w.openOracles(); err != nil {
		return fmt.Errorf("oracles: %w", err)
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		o := r.out.(*videoOut)
		switch r.kind {
		case "ingest":
			if got := o.ingested.v.Info().Frames; got != clipFrames {
				r.fail = fmt.Sprintf("ingested video has %d frames, want %d", got, clipFrames)
			}
		case "select":
			want, err := w.selectOracle(ctx, o.video, o.sel.Plan)
			if err != nil {
				return err
			}
			r.fail = checkSelect(o.sel.Frames, want, w.clips[o.video.content].truth)
		case "classify_video":
			want, err := w.classifyOracle(ctx, o.video, o.cls.Plan)
			if err != nil {
				return err
			}
			r.fail = checkPredictions(o.cls.Predictions, want)
		case "aggregate":
			want, truth, err := w.aggregateOracle(ctx, o.video, o.agg.Plan, o.seed)
			if err != nil {
				return err
			}
			r.fail = checkEstimate(o.agg.Estimate, want)
			o.truthMean = truth
		}
	}
	return nil
}
