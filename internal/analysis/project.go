package analysis

// This file is the project configuration: the six rules instantiated for
// this repository's invariants. cmd/dps-vet and the root boundary test run
// these; the rule implementations themselves are project-agnostic and are
// exercised against synthetic fixtures in testdata/.

// KnownRuleNames is the complete rule-name vocabulary, used to validate
// //dpsvet:ignore directives even in runs that execute a subset of rules.
var KnownRuleNames = []string{"boundary", "lockheld", "poolown", "wirekinds", "determinism", "tracepoints"}

// ProjectBoundary seals internal/core behind the repro/dps façade (PR 3):
// only internal/ packages and the façade itself may program against the
// engine.
func ProjectBoundary() *Rule {
	return Boundary(BoundaryConfig{
		Sealed:  []string{"repro/internal/core"},
		Allowed: []string{"repro/internal", "repro/dps"},
		Suggest: "repro/dps",
	})
}

// ProjectRules returns the full dps-vet suite configured for this tree.
func ProjectRules() []*Rule {
	return []*Rule{
		ProjectBoundary(),

		// *Locked discipline (link.go's batcher, and any future adopter of
		// the convention): project-wide, the convention is global.
		Lockheld(),

		// Pooled wire buffers and envelopes (internal/core/pool.go) and the
		// batch path's bare sync.Pool flate coders (internal/core/batch.go).
		// decodeEnvelope hands out a pooled envelope, so its result is
		// pool-owned too.
		Poolown(PoolownConfig{
			PkgSuffixes: []string{"internal/core"},
			Pools: []PoolSpec{
				{Get: "getEnvelope", Put: "putEnvelope"},
				{Get: "getWireBuf", Put: "putWireBuf"},
			},
			ExtraGets: []string{"decodeEnvelope"},
			SyncPools: []string{"flateWriterPool", "flateReaderPool"},
		}),

		// Wire kinds: engine message kinds dispatch in link.handle (batch
		// sub-frames in handleBatch/decodeBatch); kernel control kinds in
		// handleControl. Send methods of the link must order against the
		// per-destination batcher (preSend) before transmitting; sendToken
		// and sendGroupEnd route through the batcher itself.
		Wirekinds([]WirekindsConfig{
			{
				PkgSuffix:     "internal/core",
				KindPrefix:    "msg",
				DispatchFuncs: []string{"handle"},
				BatchKinds:    []string{"msgToken", "msgGroupEnd", "msgTokenFT", "msgGroupEndFT"},
				BatchFuncs:    []string{"decodeBatch"},
				PreSend: &PreSendConfig{
					RecvType:      "link",
					MethodPrefix:  "send",
					TransmitCalls: []string{"trSend", "Send"},
					FlushCalls:    []string{"preSend", "batchToken", "batchGroupEnd"},
					Exempt:        nil,
				},
			},
			{
				PkgSuffix:     "internal/kernel",
				KindPrefix:    "ctl",
				DispatchFuncs: []string{"handleControl"},
			},
		}),

		// Observability coverage: every wire kind dispatched in link.handle
		// either records a span (traceWire) or delivers into an instrumented
		// path (deliverToken dispatches queue/execute spans, deliverResult
		// records the result span at call completion, handleBatch re-enters
		// the same dispatch per entry); the control-plane kinds carry
		// explicit ignores naming why they need none.
		Tracepoints([]TracepointsConfig{{
			PkgSuffix:     "internal/core",
			KindPrefix:    "msg",
			DispatchFuncs: []string{"handle"},
			SpanCalls:     []string{"traceWire", "deliverToken", "deliverResult", "handleBatch"},
		}}),

		// Seed determinism: chaos schedule generation (chaos.go) and simnet
		// fault draws (faults.go) must be pure functions of their seed;
		// global math/rand is banned across both packages.
		Determinism([]DeterminismScope{
			{PkgSuffix: "internal/chaos", TimeFiles: []string{"chaos.go"}},
			{PkgSuffix: "internal/simnet", TimeFiles: []string{"faults.go"}},
		}),
	}
}
