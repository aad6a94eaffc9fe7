package obs

// SchemaVersion versions every JSON document the repository emits — CLI
// reports, benchmark comparisons, run manifests. Consumers should check it
// before relying on field shapes; producers source it from here and nowhere
// else, so a bump is one edit.
//
// History:
//
//	1 — first versioned schema: synthesis reports, threshold curve
//	    documents, the decoder benchmark's comparisons (since retired)
//	    and run manifests all gained a schema_version field.
const SchemaVersion = 1
