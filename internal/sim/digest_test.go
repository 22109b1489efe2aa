package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"aurora/internal/core"
	"aurora/internal/trace"
)

// resultDigests pins SHA-256(json.Marshal(Result)) for every scenario ×
// seed × policy the digest test runs. The event loop's data structures
// (completion heap, FIFO compaction, job tables, task arena) must not
// change a single bit of any Result; a digest that moves means the
// simulation itself changed and the new value needs a reason.
var resultDigests = map[string]string{
	"diurnal/1/aurora":      "233a41bfefd8cdf9d722c78683ec506e97896084963a7e691739a0b678590c05",
	"diurnal/1/dare":        "59c4c9618c01432d4d73553d25ee3d121a3d37e57430ba39544c539d5d25bfdf",
	"diurnal/2/aurora":      "f8ae066ecead7bba2d066596f33222a72c916546e611180f0e3fa0ed7149e2f8",
	"diurnal/2/dare":        "eabfa693d881710422da4eff3c353e7ea3d69d37e14b754171908af68bba4679",
	"diurnal/3/aurora":      "d83e9ce479a13952814f0f14757bb53db938c90a1a74df510f2ffaa5a67f9121",
	"diurnal/3/dare":        "3a04b76123b6d4a6e77c8f8303561243cfb375c2ad9b189ce2d09adcbdf5c8f5",
	"flashcrowd/1/aurora":   "274a4d4cf72f22fd0cba35a335f8720392cd861a79eca80ca7d0bf7aec0835aa",
	"flashcrowd/1/dare":     "722cb06e4dadd59d846a92ccd1ae039ff830f5e9733aa4d7613c75a67bdf8d54",
	"flashcrowd/2/aurora":   "ccc70ba9cfb6f321c6df18d6a77fba24af2bc1f03daa5f31a530097e1dc48196",
	"flashcrowd/2/dare":     "451744675d001903c737a46da602fc4712fbbe4e39fca89e894a5cd7296c2ecf",
	"flashcrowd/3/aurora":   "1ad555a7ba9aa01c751ec3d4585b15e384a85a62f55ded264975d7e93e0917bd",
	"flashcrowd/3/dare":     "fcc91df076ef7a59984d9337794b4934a6c7d1b06f3c6731bf385f7038f22903",
	"batchmix/1/aurora":     "7e1835eb69b311db8ab5864d339c5a81b9afd5f7259b4af19db71c00515387d4",
	"batchmix/1/dare":       "b00fce2ddfbf3b50f275f638f3eab538851512c8f2d2be48217d2fa522718a3c",
	"batchmix/2/aurora":     "7063eea88318f0f6e640f5f30eb5b4a578bb7981d998630b1fb0dff8e9bdefda",
	"batchmix/2/dare":       "25ce1b4a18538a8e94f8209b9abad2c513c496eb15c6d356d7cc2184f0a5e1cc",
	"batchmix/3/aurora":     "69bd6d6cd1aa1d65c7cdb76ccc78685f5b935d9eda39ac498e92e7f9a69c3445",
	"batchmix/3/dare":       "2b2f834d362afdba0271c7723ec4fe1779cc960e63630eb8aa423d6057e5d9c3",
	"regionskew/1/aurora":   "bf1e18f58e641c60e54113430b9e20da6b750389eaa55872077d35f9d91dc621",
	"regionskew/1/dare":     "a5e324095e08a385ba7f31fe37e4ab3e93dfa2815797a93b0983e8f24fb5bb05",
	"regionskew/2/aurora":   "9979a90998bfa880de5a29e87bdd72cd99df797526cc48bd87ec87b5bbfa9777",
	"regionskew/2/dare":     "d82938100a285ca0b0b4547f63f3de6a196f00a56a70ff7b59ef209f52e6ef6d",
	"regionskew/3/aurora":   "ff0170e357f47bc54e369d299ca3c5e04f2bfc93c16e53b0155738ddfe69fc55",
	"regionskew/3/dare":     "7fa6972c5bf1f24591197c8ab52a52527ec031a81586f6b20fec52ffdb816c93",
	"restartchurn/1/aurora": "9ce89018a5e6200117ff4fc7ba436871991eed6c172a3ddf90450b88da1dff9e",
	"restartchurn/1/dare":   "7a76027647d2e72c92fea354de15667c1af2c568990151cc4ab26213b47f1dd2",
	"restartchurn/2/aurora": "bad55ae0b5be93d4b43ed0e9e68ff14e9a2f91899ab7562d47c3b01b86ec7edb",
	"restartchurn/2/dare":   "852a967daa2d199024e8a6410c259c2a9a5c75f2fa0ddf0acad71d6a14bbd109",
	"restartchurn/3/aurora": "03566b31693967294ed966e94f75f04c77e51aec918ce0ef0dbd84f102dbe928",
	"restartchurn/3/dare":   "060b7850c248b177141ac6e86d2b326ed18a7cf6f9903b066324f28999c5a997",
}

func TestRunResultDigest(t *testing.T) {
	cl := smallCluster(t)
	for _, name := range trace.ScenarioNames() {
		for seed := uint64(1); seed <= 3; seed++ {
			tr := scenarioTrace(t, name, seed)
			dare, err := NewDAREPolicy(seed, 0.3, tr.NumBlocks()*7/2)
			if err != nil {
				t.Fatalf("NewDAREPolicy: %v", err)
			}
			policies := []Policy{
				&AuroraPolicy{Opts: core.OptimizerOptions{
					Epsilon:           0.1,
					RackAware:         true,
					ReplicationBudget: tr.NumBlocks()*7/2 + 1,
				}},
				dare,
			}
			for _, pol := range policies {
				key := fmt.Sprintf("%s/%d/%s", name, seed, pol.Name())
				res, err := Run(Config{Cluster: cl, Trace: tr, Policy: pol})
				if err != nil {
					t.Fatalf("%s: Run: %v", key, err)
				}
				raw, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("%s: Marshal: %v", key, err)
				}
				sum := sha256.Sum256(raw)
				if got, want := hex.EncodeToString(sum[:]), resultDigests[key]; got != want {
					t.Errorf("%q: %q, // want %q", key, got, want)
				}
			}
		}
	}
}
