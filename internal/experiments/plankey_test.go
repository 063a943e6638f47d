package experiments

import (
	"fmt"
	"testing"

	"distal/internal/algorithms"
	"distal/internal/baselines"
	"distal/internal/core"
	"distal/internal/request"
)

// planKeyInputs names every compile input the algorithms and baselines
// packages build for the paper's figures: the 20 configurations of the
// paper sweep at 256 nodes (the six Fig. 9 algorithms on CPU and GPU, then
// the four §7.2 kernels on CPU and GPU), and every baseline builder at 1, 16
// and 256 nodes.
func planKeyInputs() []struct {
	name  string
	build func() (core.Input, error)
} {
	type entry = struct {
		name  string
		build func() (core.Input, error)
	}
	var out []entry
	const sweepNodes = 256
	for _, gpu := range []bool{false, true} {
		tag, procs, ppn, base := "cpu", sweepNodes*2, 2, 8192
		if gpu {
			tag, procs, ppn, base = "gpu", sweepNodes*4, 4, 19968
		}
		for _, alg := range algorithms.MatmulAlgs {
			cfg := algorithms.MatmulConfig{N: weakScaledN(base, sweepNodes), Procs: procs, ProcsPerNode: ppn, GPU: gpu}
			out = append(out, entry{fmt.Sprintf("matmul-%s-%s", tag, alg), func() (core.Input, error) { return algorithms.Matmul(alg, cfg) }})
		}
	}
	for _, gpu := range []bool{false, true} {
		tag, procs, ppn := "cpu", sweepNodes*2, 2
		if gpu {
			tag, procs, ppn = "gpu", sweepNodes*4, 4
		}
		for _, k := range HigherKernels {
			cfg := scaleHigher(k, sweepNodes)
			cfg.Procs, cfg.ProcsPerNode, cfg.GPU = procs, ppn, gpu
			out = append(out, entry{fmt.Sprintf("%s-%s", k, tag), func() (core.Input, error) { return higher[k].ours(cfg) }})
		}
	}
	spec := func(build func() (*baselines.Spec, error)) func() (core.Input, error) {
		return func() (core.Input, error) {
			s, err := build()
			if err != nil {
				return core.Input{}, err
			}
			return request.Build(s.Request, s.Machine)
		}
	}
	for _, nodes := range []int{1, 16, 256} {
		n, gn := weakScaledN(8192, nodes), weakScaledN(19968, nodes)
		matmul := []struct {
			name  string
			build func() (*baselines.Spec, error)
		}{
			{"scalapack", func() (*baselines.Spec, error) { return baselines.ScaLAPACKMatmul(n, nodes) }},
			{"ctf", func() (*baselines.Spec, error) { return baselines.CTFMatmul(n, nodes) }},
			{"cosma", func() (*baselines.Spec, error) { return baselines.COSMAMatmul(n, nodes, false, false) }},
			{"cosma-restricted", func() (*baselines.Spec, error) { return baselines.COSMAMatmul(n, nodes, true, false) }},
			{"cosma-gpu", func() (*baselines.Spec, error) { return baselines.COSMAMatmul(gn, nodes, false, true) }},
		}
		for _, m := range matmul {
			out = append(out, entry{fmt.Sprintf("%s-%d", m.name, nodes), spec(m.build)})
		}
		for _, k := range HigherKernels {
			cfg := scaleHigher(k, nodes)
			out = append(out, entry{fmt.Sprintf("ctf-%s-%d", k, nodes), spec(func() (*baselines.Spec, error) { return higher[k].ctf(cfg, nodes) })})
		}
	}
	return out
}

// planKeyGolden holds each input's core.PlanKey, recorded before the
// algorithms and baselines were written as request text. A key moves when
// the statement, machine, shapes, formats or schedule text of an input
// move, even when no simulated number does.
var planKeyGolden = map[string]string{
	"matmul-cpu-cannon":    "a05f5e6a4f636a0e2f2cb45668ac466071aa49cccd85915eb5eb3b904061cea1",
	"matmul-cpu-pumma":     "6cb5cac6af3fb0bbc523a8830c1a969b6fa8ece2dc554702462bf825fc71c9b5",
	"matmul-cpu-summa":     "92a90bca50eff5c7c7f6e8b7160f7340447a299e4d092882b410e101208b2bad",
	"matmul-cpu-johnson":   "5e4991e093c8cfb15e7d6ade082941c63ae0b318d65f0407c53602d318e33975",
	"matmul-cpu-solomonik": "9e956e98ff71c7d77682ed97e3eebc516264a0fef54a803f1f5f24441aac5a10",
	"matmul-cpu-cosma":     "cd6720f1a5b6489b80e718b52a75fd9b18b08efddd759abf4ab4e7409e88774d",
	"matmul-gpu-cannon":    "8f98befbbe0ac2329a4213f14a03e92f5c0742d1381095a6aac6f61d8fa3e686",
	"matmul-gpu-pumma":     "14b67110ce80a2920342ac11e23425376fd5c6889a2781ed4b99ec6417c87f6d",
	"matmul-gpu-summa":     "95ec654a034ad0be76f19dc406e6ab331237a8a5668dcbfd850096f1153d8813",
	"matmul-gpu-johnson":   "a96cccdb354dccf087979b1caf2a43e25100ef15b5919ef41063ba175ff0828a",
	"matmul-gpu-solomonik": "bc42ecf7c1cc6d223521853d936f2394502942a70f4b58e658090d5b46b104b2",
	"matmul-gpu-cosma":     "0e29818e7b83da2da67555328d985012a89ed5bd180363c838b2edbe415c4db0",
	"ttv-cpu":              "d311da58995c35bcc7e590668c32574cc873f26194aae6edd7f754c4622fd722",
	"innerprod-cpu":        "1e688a87051d94be41b749ed6bc4c090d51ef93235e73a723c93e2dbd63498c8",
	"ttm-cpu":              "d081a7eb01fd5ed06c063919dcc431082af5ca5a4897878b37fa6e3d741fd6ac",
	"mttkrp-cpu":           "816ffbb3c37c5dae214b2bb3a9a5f311189497e242bcef99a7d2eb36a9ff30ea",
	"ttv-gpu":              "23c9a4aa30f502abaa541690d1b69074b4afcd82e2948001e46025aeb0337bbd",
	"innerprod-gpu":        "b7759bf99787221164499f62f5a885bdfe41dd11fb380009d4a46c9ef379821a",
	"ttm-gpu":              "989c1856f085d9753963bd757dc4c72b75e9161506df607f171e9de620bf5967",
	"mttkrp-gpu":           "42bef630ca6ed233a689c9fd72d772803d9cb7c04905cfdcf2391ea45b91088e",
	"scalapack-1":          "fe81af267383262acbf71c36b5a82132b829d555733a2f5f48ec352bbf773a09",
	"ctf-1":                "b2b7e8e0ed527243759d17af189371f869e2c7c06858a6983391e88aa7034e31",
	"cosma-1":              "3f622c7a3ba1dd3dd422c6555aab3d83e4a2934823b519855ef2516e03ad20f7",
	"cosma-restricted-1":   "3f622c7a3ba1dd3dd422c6555aab3d83e4a2934823b519855ef2516e03ad20f7",
	"cosma-gpu-1":          "53855aa999c56837a2d57d2665c967aef2e88b42f8634d669fee66e06dfe4eba",
	"ctf-ttv-1":            "95f8294b6519210c04cd4871ebf1339ef8b5f8138f169666145c1398667fbc54",
	"ctf-innerprod-1":      "5b9e14ade71258a83bb9522941c518b632be48fac52bcebfdc24243ee8bdcfcd",
	"ctf-ttm-1":            "dad9e7e2a5108b195c90a55837fcd1d3cb424ff774614ae0bbd0328ebbe6a318",
	"ctf-mttkrp-1":         "2a42306e0126925ee3f86cb62a62a7fad177179fceaa59d620287b24e6d24bb2",
	"scalapack-16":         "e78fe922f9ace49b4c5c8fec78d59d4b12d16892572f23fc45008231f30cb471",
	"ctf-16":               "caa3117466361dcc1d26e3ba467b07f4792db254a9f919e2a084621a1af57b7f",
	"cosma-16":             "65e625762f80072202fb085450c77d861d3d341cc871d3ec3f807aa09b1ab840",
	"cosma-restricted-16":  "65e625762f80072202fb085450c77d861d3d341cc871d3ec3f807aa09b1ab840",
	"cosma-gpu-16":         "45d73b7677e2691715b12e6c1a3dd8455a80eb4d2fe2f3c5bf1c189b188d9584",
	"ctf-ttv-16":           "b7004f22d6c4c2cea9c6d0fc8fe8ed7e3edadc5b9ee33fce564a6e24c7deb547",
	"ctf-innerprod-16":     "17f6c0989db2b2527995c63916a601033c4ed9493602af6512f3f185a4796d6e",
	"ctf-ttm-16":           "6481fe0f8c5e4a61486c7cbcec93dc7de174f6c66d88fe48b6d1dfa8ef1184a1",
	"ctf-mttkrp-16":        "d6a29982e735e96ca016a866305bf0b0e0e471dd9ad24a2fb8508dced705e2f8",
	"scalapack-256":        "7cc1c1fd59da004dd5affd32d6369e385e0044e6917010ae9fa6ad982d87b0b9",
	"ctf-256":              "cb1e15edb03774a70952e410f20bd79e6a07b902b43fc2e937198b6b04601691",
	"cosma-256":            "cd6720f1a5b6489b80e718b52a75fd9b18b08efddd759abf4ab4e7409e88774d",
	"cosma-restricted-256": "cd6720f1a5b6489b80e718b52a75fd9b18b08efddd759abf4ab4e7409e88774d",
	"cosma-gpu-256":        "0e29818e7b83da2da67555328d985012a89ed5bd180363c838b2edbe415c4db0",
	"ctf-ttv-256":          "67ed1e752bc358a52e133763d4bc4f746db3483c3c0e9b12259e0dd268d4f2d1",
	"ctf-innerprod-256":    "c1cb181687bbd8a15f3c3e1a3cbc61a20876218b2f42e90ab4232e7b72e1853c",
	"ctf-ttm-256":          "9d3cc7babac7db857970c33582b3a4470266d42541bac3ac97d992c65332b9fd",
	"ctf-mttkrp-256":       "16a28c3aec001444e8bf70369116bfbba5af98e34bd507cda5943e512dc7456c",
}

func TestPlanKeysGolden(t *testing.T) {
	inputs := planKeyInputs()
	if len(inputs) != len(planKeyGolden) {
		t.Fatalf("%d inputs, %d golden keys", len(inputs), len(planKeyGolden))
	}
	for _, in := range inputs {
		got, err := in.build()
		if err != nil {
			t.Errorf("%s: %v", in.name, err)
			continue
		}
		if key := core.PlanKey(got); key != planKeyGolden[in.name] {
			t.Errorf("%s: plan key %s, want %s", in.name, key, planKeyGolden[in.name])
		}
	}
}
