package experiments

// figureHashes pins every row of Table at 65² (highland and crater, seed
// 1, 20 locations, each row's own sweeps): the SHA-256 of pinnedJSON of
// its result. The hashes were captured at the parent of the change that
// introduced this test, and a moved hash is a moved figure — a finding,
// never a reason to re-pin. The seven rows that build packed stores
// (flyover, tilecache, faults, layoutcmp, cluster, stream, obstrace) were
// re-pinned once, on purpose, when store format v6 shrank the packed
// record and so moved which records share a data page. obstrace was
// re-pinned once more when a fan-out began asking each shard once for all
// the cover tiles it owns: only its shard_hop span counts moved, one hop
// per shard request instead of one per tile. ablation was pinned at the
// DA the root package's ablation benchmarks it replaced printed.
//
// The map is program code, not test code, because dmbench stamps a row's
// hash into the results/ file it writes (Row.Pin), and
// TestResultsCarryLivePins holds every checked-in file to its row's live
// hash.
var figureHashes = map[string]string{
	"conn":        "d37e1d4ace7aa9d6b2557864f2fb59fff16e2d3f3efb735b0a523217e164f5c2",
	"flyover":     "f332778510164845498ab45627ce47ee93ac631f4d2f62b37b065a00f6f17efa",
	"6a":          "2810427c819faae117170afc771f89d28a9e9411d4e7e7765a9a2fbbbd62bd57",
	"6b":          "9f09b3397c528dad5ce581bd30262f02319b929adb85516bf2ffa1ec1fcb4ad2",
	"6c":          "bf17e28496b4492a9cc45c9d7eef1957621bbf4050749c7b0a33c0c8f53ed0b6",
	"6d":          "d8392b5bf70914b7f3553e4485d3efdbd6b33fe810732db5ce7cc7abbb4753ae",
	"8a":          "98efc92015240414022d7bc8badd78245af4bcd0496781127501d1fbbb6c6cca",
	"8b":          "77699638bb20a219f5492b4c4a858828894e7594f3b04fc77ae0e364007ea6db",
	"8c":          "56b0b5da8e355c6cbe8bab8c075f0b540396f36c5b385b44ba4e66ca45b50ec4",
	"8d":          "2a992da8f749b0c3e057fe19f56c60679333fcee66000f8148f3d2f22fd579ba",
	"8e":          "ba8e58f5a91aa9fdeedc3560b19738ef0ef8a1abc6e2427a0a21fddcd0cd1f94",
	"8f":          "01e8fec4016d4dbbd18ef7b225491104b5f3278dddaa1130aa2bbd624d677ab2",
	"ablation":    "c2e63358717ab1d3de1d17965ee828807151ea0a357fffcfc14b09e9929dacb2",
	"tilecache":   "8f59cb492555a9e651bb811289034436845e9375f8c239be79da26a8fa6475be",
	"faults":      "00b3194fc23b1c071dad6fd7fc54bf914fc9eb18859e9f18242ef0fe0668ee61",
	"dabreakdown": "1c39c33ed8c9ad0ebe960cb5a0cc4e996fd6b9d21e9c639384ea91fbfda0371b",
	"layoutcmp":   "163e51bc436292d2ee1bf0c39c668f8c556c37ef03c56c99e672ff0b2f99fdfc",
	"cluster":     "2baa1985fb53943b976fdfe0d2a83d8c40560e81460458e30c51049d38387d1c",
	"stream":      "3ff801e93ccb0bcbc19ad9893907e3bcf80d1f0ff64336dd641aec15f3421108",
	"obstrace":    "d577bc63c4dd6d9dd412b26edf4e8d11171468918b944006bda98faeea8119f9",
}
