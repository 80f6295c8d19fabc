package cdfmodel

import "repro/internal/kv"

// BatchPredictor is the optional batch counterpart of Model.Predict. A
// model that implements it predicts a whole query slice in one call, so the
// per-query interface dispatch of the scalar path is paid once per batch
// and the per-model parameter loads stay in registers across the loop.
// PredictBatch must be element-wise identical to Predict.
type BatchPredictor[K kv.Key] interface {
	// PredictBatch writes Predict(qs[i]) into out[i] for every i.
	// len(out) must be >= len(qs).
	PredictBatch(qs []K, out []int)
}

// PredictBatch predicts every query in qs into out, using the model's
// PredictBatch when it implements BatchPredictor and a scalar fallback loop
// otherwise. This is the entry point the batched query engine
// (core.FindBatch) uses; callers never need to type-assert themselves.
func PredictBatch[K kv.Key](m Model[K], qs []K, out []int) {
	if bp, ok := m.(BatchPredictor[K]); ok {
		bp.PredictBatch(qs, out)
		return
	}
	for i, q := range qs {
		out[i] = m.Predict(q)
	}
}

// PredictBatch implements BatchPredictor: the IM prediction with min, scale
// and n held in locals across the loop. The key offset converts through
// toFloat, so the loop has no branch on the offset's top bit.
func (m *Interpolation[K]) PredictBatch(qs []K, out []int) {
	if m.n == 0 {
		for i := range qs {
			out[i] = 0
		}
		return
	}
	min, scale, limit := m.min, m.scale, float64(m.n-1)
	for i, q := range qs {
		if q <= min {
			out[i] = 0
			continue
		}
		v := toFloat(uint64(q-min)) * scale
		if v >= limit {
			out[i] = m.n - 1
		} else {
			out[i] = int(v)
		}
	}
}

// PredictBatch implements BatchPredictor for the least-squares line.
func (m *Linear[K]) PredictBatch(qs []K, out []int) {
	if m.n == 0 {
		for i := range qs {
			out[i] = 0
		}
		return
	}
	slope, xref, yref := m.slope, m.xref, m.yref
	for i, q := range qs {
		out[i] = clampPos(yref+slope*(toFloat(uint64(q))-xref), m.n)
	}
}

// PredictBatch implements BatchPredictor for the cubic model.
func (m *Cubic[K]) PredictBatch(qs []K, out []int) {
	if m.n == 0 {
		for i := range qs {
			out[i] = 0
		}
		return
	}
	c0, c1, c2, c3 := m.c[0], m.c[1], m.c[2], m.c[3]
	min, inv := m.min, m.inv
	for i, q := range qs {
		u := (toFloat(uint64(q)) - min) * inv
		out[i] = clampPos(c0+u*(c1+u*(c2+u*c3)), m.n)
	}
}
